// The benchmark's own instrumentation: the engine observers the timed and
// traced runs attach, a clocking Dispatcher for grid cells, and a
// forwarding Dispatcher that probes candidate generation and greedy
// selection on each batch's context before the real Dispatch. Spans go to a
// telemetry::TelemetrySession that is never attached to the engine, so the
// engine's own telemetry stays off. Nothing here is compiled into the
// library; it only calls the layers' public functions.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dispatch/candidates.h"
#include "dispatch/irg_core.h"
#include "sim/batch.h"
#include "sim/observer.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace perfbench {

using mrvd::telemetry::TelemetrySession;
using mrvd::telemetry::TraceSpan;

/// Category of every span the benchmark records.
inline constexpr const char* kCategory = "perfbench";

inline int64_t NowNs() { return mrvd::Stopwatch::NowNanos(); }

/// How long the reference sort takes: std::sort of 4,096 pseudo-random
/// 32-bit values, filled untimed just before so that they sit in L1. Its
/// time follows how fast this vCPU runs branchy integer code at that moment
/// (on a shared host it swings with the neighbours' load, as the program
/// does) and not what the program left in the caches. The timed runs
/// sample it on the measuring thread and run.py scales their times by it
/// (README.md, "Host-speed normalisation").
int64_t ReferenceSortNs();

/// Samples the reference sort on the calling thread, at most once per
/// period.
class SortSampler {
 public:
  struct Sample {
    int64_t sort_ns;  ///< the sort's own time
    int64_t end_ns;   ///< clock reading once the sample is done
  };
  /// A sampler that is not enabled never samples.
  explicit SortSampler(bool enabled) : enabled_(enabled) {}
  /// Runs the sort when a period has passed since the previous sample
  /// began; `now` is the caller's latest clock reading. The caller leaves
  /// the time from `now` to `end_ns` out of what it times.
  std::optional<Sample> MaybeSample(int64_t now);

 private:
  bool enabled_;
  int64_t next_ns_ = 0;
};

/// The timed day's only observer: reads the clock at each batch end, so
/// consecutive readings bound one batch (cut -> assignments applied), and
/// samples the reference sort between batches when given somewhere to put
/// the samples. Sampling counts in no batch; sampling_ns() is what the
/// day's wall time leaves out.
class BatchClock final : public mrvd::SimObserver {
 public:
  BatchClock(std::vector<int64_t>* batch_ns, std::vector<int64_t>* sort_ns)
      : batch_ns_(batch_ns), sort_ns_(sort_ns), sampler_(sort_ns != nullptr) {}
  void Start() { last_ns_ = NowNs(); }
  void OnBatchEnd(double) override {
    const int64_t t = NowNs();
    batch_ns_->push_back(t - last_ns_);
    last_ns_ = t;
    if (const auto sample = sampler_.MaybeSample(t)) {
      sort_ns_->push_back(sample->sort_ns);
      sampling_ns_ += sample->end_ns - t;
      last_ns_ = sample->end_ns;
    }
  }
  int64_t sampling_ns() const { return sampling_ns_; }

 private:
  std::vector<int64_t>* batch_ns_;
  std::vector<int64_t>* sort_ns_;
  SortSampler sampler_;
  int64_t last_ns_ = 0;
  int64_t sampling_ns_ = 0;
};

/// Fixed-capacity buffer that runner threads append to concurrently. It is
/// sized (and touched) before the grid runs, so the grid's peak memory does
/// not depend on how its cells interleave.
class ConcurrentSeries {
 public:
  /// Empties the series and makes room for `capacity` values.
  void Reset(size_t capacity) {
    values_.assign(capacity, 0);
    added_.store(0, std::memory_order_relaxed);
  }
  /// Values past the capacity are dropped (run.py reports missing batch
  /// times as a failed check).
  void Add(int64_t v) {
    const size_t i = added_.fetch_add(1, std::memory_order_relaxed);
    if (i < values_.size()) values_[i] = v;
  }
  /// The values added since Reset. Call only after the runner threads that
  /// added them have been joined.
  std::span<const int64_t> Values() const {
    return std::span<const int64_t>(values_).first(
        std::min(added_.load(std::memory_order_relaxed), values_.size()));
  }

 private:
  std::vector<int64_t> values_;
  std::atomic<size_t> added_{0};
};

/// What the grid cells' clocks record, from any runner thread.
struct BatchSink {
  ConcurrentSeries batch_ns;
  ConcurrentSeries sort_ns;
  std::atomic<int64_t> sampling_ns{0};  ///< summed over runner threads
  bool sample = false;  ///< whether the cells sample the reference sort
};

/// A grid cell's clock. CampaignRunner takes no per-cell observer, so each
/// cell's dispatcher is wrapped: it reads the clock as each Dispatch
/// starts, and consecutive readings bound one batch cycle, the same work
/// BatchClock times between batch ends. Like BatchClock it samples the
/// reference sort between batches, on the cell's runner thread.
class ClockedDispatcher final : public mrvd::Dispatcher {
 public:
  ClockedDispatcher(std::unique_ptr<mrvd::Dispatcher> inner, BatchSink* sink)
      : inner_(std::move(inner)), sink_(sink), sampler_(sink->sample) {}

  std::string name() const override { return inner_->name(); }
  const mrvd::DispatchCounters* counters() const override {
    return inner_->counters();
  }
  void Dispatch(const mrvd::BatchContext& ctx,
                std::vector<mrvd::Assignment>* out) override {
    const int64_t t = NowNs();
    if (last_ns_ != 0) sink_->batch_ns.Add(t - last_ns_);
    last_ns_ = t;
    if (const auto sample = sampler_.MaybeSample(t)) {
      sink_->sort_ns.Add(sample->sort_ns);
      sink_->sampling_ns.fetch_add(sample->end_ns - t,
                                   std::memory_order_relaxed);
      last_ns_ = sample->end_ns;
    }
    inner_->Dispatch(ctx, out);
  }

 private:
  std::unique_ptr<mrvd::Dispatcher> inner_;
  BatchSink* sink_;
  SortSampler sampler_;
  int64_t last_ns_ = 0;
};

/// Per-layer accumulators of a traced run (summed over every run the
/// traced phase makes).
struct LayerStats {
  // sim: context sizes and the engine's own stage split.
  int64_t batches = 0;
  std::vector<double> riders_per_batch;
  std::vector<double> drivers_per_batch;
  double release_s = 0, inject_s = 0, scenario_s = 0, expire_s = 0;
  double build_s = 0, apply_s = 0, untimed_s = 0;
  int64_t assignments_applied = 0;
  int64_t reneged_hooks = 0;
  int64_t never_dispatched = 0;

  // dispatch: the forwarding wrapper and its probes.
  std::vector<double> dispatch_ms;  ///< the real Dispatch, per batch
  double candidate_gen_s = 0, greedy_s = 0, ls_refine_s = 0;
  int64_t candidate_pairs = 0;
  int64_t assignments_returned = 0;

  // queueing: ET solves the greedy probe made (memo misses).
  int64_t et_solves = 0;
  double et_solve_s = 0;
};

/// The traced run's observer: one `batch` span per batch, bounded by the
/// batch-end hooks, context sizes, the stage split and the conservation
/// counts. `batches` is how many batches the run makes, so no span opens
/// after the last one ends (0 or a null `session`: no spans).
class TracedObserver final : public mrvd::SimObserver {
 public:
  TracedObserver(TelemetrySession* session, LayerStats* stats,
                 int64_t batches)
      : session_(session), stats_(stats), batches_(batches) {}

  void Start() {
    last_ns_ = NowNs();
    if (batches_ > 0) span_.emplace(session_, "batch", kCategory);
  }
  void OnBatchBuilt(double, double, const mrvd::BatchContext& ctx) override {
    stats_->riders_per_batch.push_back(static_cast<double>(ctx.riders().size()));
    stats_->drivers_per_batch.push_back(
        static_cast<double>(ctx.drivers().size()));
  }
  void OnAssignmentApplied(double, const mrvd::AssignmentEvent&) override {
    ++stats_->assignments_applied;
  }
  void OnRiderReneged(double, const mrvd::Order&) override {
    ++stats_->reneged_hooks;
  }
  void OnBatchTimings(double, const mrvd::BatchTimings& t) override {
    timings_ = t;
  }
  void OnBatchEnd(double) override;
  void OnRunEnd(double, int64_t never_dispatched) override {
    stats_->never_dispatched += never_dispatched;
    span_.reset();
  }

 private:
  TelemetrySession* session_;
  LayerStats* stats_;
  int64_t batches_;
  int64_t ended_ = 0;
  std::optional<TraceSpan> span_;
  mrvd::BatchTimings timings_;
  int64_t last_ns_ = 0;
};

/// Forwards to `inner`, first running two probes on the batch's context:
/// GenerateValidPairs, then RunGreedySelectionWithIdle (idle-ratio
/// objective) with a probe-local ET memo over ComputeIdleSeconds. The
/// probes never touch the context's own memo, so results are unchanged.
class ProbedDispatcher final : public mrvd::Dispatcher {
 public:
  ProbedDispatcher(mrvd::Dispatcher* inner, TelemetrySession* session,
                   LayerStats* stats)
      : inner_(inner), session_(session), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  const mrvd::DispatchCounters* counters() const override {
    return inner_->counters();
  }
  void Dispatch(const mrvd::BatchContext& ctx,
                std::vector<mrvd::Assignment>* out) override;

 private:
  mrvd::Dispatcher* inner_;
  TelemetrySession* session_;
  LayerStats* stats_;
  std::unordered_map<int64_t, double> memo_;
};

}  // namespace perfbench
