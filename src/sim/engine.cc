#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/region_partitioner.h"
#include "sim/assignment_applier.h"
#include "sim/batch_builder.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"
#include "sim/shard_load_tracker.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace mrvd {

namespace {

/// Mutable scenario state of one run: the event cursor plus the active
/// surge windows' per-region demand-multiplier product. Everything here is
/// dormant (and allocation-free) when the script is null or empty, which
/// keeps the unscripted path bit-identical.
class ScenarioState {
 public:
  ScenarioState(const ScenarioScript* script,
                const std::vector<DriverSpec>& drivers, const Grid& grid)
      : script_(script), grid_(grid) {
    if (script_ == nullptr || script_->empty()) return;
    events_ = EventStream(*script_);
    surge_active_.assign(script_->surges().size(), false);
    driver_index_.reserve(drivers.size());
    for (size_t j = 0; j < drivers.size(); ++j) {
      driver_index_.emplace(drivers[j].id, static_cast<int>(j));
    }
  }

  bool Exhausted() const { return events_.Exhausted(); }

  /// Applies every event due at `now` to the stages, firing observer hooks
  /// for the ones that changed state. Cancellations are batched into one
  /// stable OrderBook pass.
  void ApplyDueEvents(double now, FleetState* fleet, OrderBook* orders,
                      SimObserver* observers) {
    while (const ScenarioEvent* e = events_.PeekDue(now)) {
      switch (e->type) {
        case ScenarioEventType::kDriverSignOn:
        case ScenarioEventType::kDriverSignOff: {
          const bool on = e->type == ScenarioEventType::kDriverSignOn;
          auto it = driver_index_.find(e->driver_id);
          if (it != driver_index_.end() &&
              (on ? fleet->SignOn(it->second, now)
                  : fleet->SignOff(it->second))) {
            observers->OnDriverShiftChange(now, e->driver_id, on);
          }
          break;
        }
        case ScenarioEventType::kRiderCancel:
          due_cancels_.push_back(e->order_id);
          break;
        case ScenarioEventType::kSurgeBegin:
        case ScenarioEventType::kSurgeEnd: {
          const bool begin = e->type == ScenarioEventType::kSurgeBegin;
          auto& active = surge_active_[static_cast<size_t>(e->surge_index)];
          if (active != static_cast<char>(begin)) {
            active = static_cast<char>(begin);
            RecomputeMultipliers();
            observers->OnSurgeChange(
                now, script_->surges()[static_cast<size_t>(e->surge_index)],
                begin);
          }
          break;
        }
      }
      events_.Pop();
    }
    if (!due_cancels_.empty()) {
      orders->CancelRiders(due_cancels_, now, observers);
      due_cancels_.clear();
    }
  }

  /// Per-region predicted-demand multipliers, or null when no surge is
  /// active (the dormant fast path).
  const std::vector<double>* demand_multipliers() const {
    return demand_multipliers_.empty() ? nullptr : &demand_multipliers_;
  }

 private:
  void RecomputeMultipliers() {
    // With no active surge the vector empties, restoring the dormant
    // (null-multiplier) build path for the rest of the run.
    if (std::find(surge_active_.begin(), surge_active_.end(),
                  static_cast<char>(true)) == surge_active_.end()) {
      demand_multipliers_.clear();
      return;
    }
    demand_multipliers_.assign(static_cast<size_t>(grid_.num_regions()),
                               1.0);
    for (size_t s = 0; s < surge_active_.size(); ++s) {
      if (!surge_active_[s]) continue;
      const SurgeWindow& w = script_->surges()[s];
      if (w.regions.empty()) {
        for (double& m : demand_multipliers_) m *= w.multiplier;
      } else {
        for (RegionId k : w.regions) {
          if (k >= 0 && k < grid_.num_regions()) {
            demand_multipliers_[static_cast<size_t>(k)] *= w.multiplier;
          }
        }
      }
    }
  }

  const ScenarioScript* script_;
  const Grid& grid_;
  EventStream events_;
  std::vector<char> surge_active_;  ///< by ScenarioScript surge index
  std::vector<double> demand_multipliers_;  ///< empty unless a surge is active
  std::unordered_map<DriverId, int> driver_index_;  ///< id -> fleet index
  std::vector<OrderId> due_cancels_;  ///< reused per-batch buffer
};

}  // namespace

Status SimConfig::Validate() const {
  // "Positive" means positive AND finite: ParseDouble accepts "inf", and an
  // infinite horizon (or a batch interval of inf with a finite horizon)
  // would hang the batch loop forever — exactly what Validate() exists to
  // reject before the engine runs.
  if (!(batch_interval > 0.0) || !std::isfinite(batch_interval)) {
    return Status::InvalidArgument(
        "batch_interval (Δ) must be positive and finite, got " +
        std::to_string(batch_interval));
  }
  if (!(window_seconds > 0.0) || !std::isfinite(window_seconds)) {
    return Status::InvalidArgument(
        "window_seconds (t_c) must be positive and finite, got " +
        std::to_string(window_seconds));
  }
  if (!(horizon_seconds > 0.0) || !std::isfinite(horizon_seconds)) {
    return Status::InvalidArgument(
        "horizon_seconds must be positive and finite, got " +
        std::to_string(horizon_seconds));
  }
  // The batch loop advances its clock by `now += batch_interval`. Below one
  // ulp of `now` the sum rounds back to `now` and the loop never ends;
  // horizon_seconds * ε is at least one ulp of every clock value below the
  // horizon, so the clock always advances.
  const double min_interval =
      horizon_seconds * std::numeric_limits<double>::epsilon();
  if (batch_interval < min_interval) {
    return Status::InvalidArgument(StrFormat(
        "batch_interval (Δ) %g is below horizon_seconds %g * DBL_EPSILON = "
        "%g; the batch clock could not advance",
        batch_interval, horizon_seconds, min_interval));
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(num_threads));
  }
  if (num_shards < 0) {
    return Status::InvalidArgument(
        "num_shards must be >= 0 (0 = derive from threads), got " +
        std::to_string(num_shards));
  }
  if (!(rebalance_threshold >= 1.0) || !std::isfinite(rebalance_threshold)) {
    return Status::InvalidArgument(
        "rebalance_threshold must be >= 1 and finite, got " +
        std::to_string(rebalance_threshold));
  }
  if (!(load_ewma_alpha > 0.0) || load_ewma_alpha > 1.0) {
    return Status::InvalidArgument(
        "load_ewma_alpha must be in (0, 1], got " +
        std::to_string(load_ewma_alpha));
  }
  if (!(forecast_blend >= 0.0) || !std::isfinite(forecast_blend)) {
    return Status::InvalidArgument(
        "forecast_blend must be >= 0 and finite, got " +
        std::to_string(forecast_blend));
  }
  if (!(alpha > 0.0) || !std::isfinite(alpha)) {
    return Status::InvalidArgument("alpha (fee rate) must be positive and "
                                   "finite, got " + std::to_string(alpha));
  }
  if (!(reneging_beta >= 0.0) || !std::isfinite(reneging_beta)) {
    return Status::InvalidArgument("reneging_beta must be >= 0 and finite, "
                                   "got " + std::to_string(reneging_beta));
  }
  return Status::OK();
}

namespace {

/// An invalid config, or a forecast for a grid with a different region
/// count, this deep is a programming error: SimulationBuilder reports both
/// as a Status before the engine is ever constructed. Left through, the
/// forecast mismatch would read past the per-region forecast buffer.
void CheckEngineInputs(const SimConfig& config, const Grid& grid,
                       const DemandForecast* forecast) {
  if (Status st = config.Validate(); !st.ok()) {
    MRVD_LOG(Error) << "invalid SimConfig: " << st;
    std::abort();
  }
  if (forecast != nullptr && forecast->num_regions() != grid.num_regions()) {
    MRVD_LOG(Error) << "forecast covers " << forecast->num_regions()
                    << " regions but the grid has " << grid.num_regions();
    std::abort();
  }
}

}  // namespace

Simulator::Simulator(const SimConfig& config, const Workload& workload,
                     const Grid& grid, const TravelCostModel& cost_model,
                     const DemandForecast* forecast)
    : config_(config),
      workload_(&workload),
      drivers_(workload.drivers),
      grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast) {
  CheckEngineInputs(config_, grid_, forecast_);
}

Simulator::Simulator(const SimConfig& config, OrderSource& source,
                     const std::vector<DriverSpec>& drivers, const Grid& grid,
                     const TravelCostModel& cost_model,
                     const DemandForecast* forecast)
    : config_(config),
      source_(&source),
      drivers_(drivers),
      grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast) {
  CheckEngineInputs(config_, grid_, forecast_);
}

SimResult Simulator::Run(Dispatcher& dispatcher, SimObserver* extra) {
  return RunImpl(dispatcher, nullptr, extra);
}

SimResult Simulator::Run(Dispatcher& dispatcher, const ScenarioScript& script,
                         SimObserver* extra) {
  return RunImpl(dispatcher, &script, extra);
}

SimResult Simulator::RunImpl(Dispatcher& dispatcher,
                             const ScenarioScript* script,
                             SimObserver* extra) {
  // Materialised runs wrap the workload's vector in a per-run source, so
  // both paths drive the identical OrderBook injection loop; streamed
  // sources are rewound so every Run sees the stream from the top.
  std::optional<MaterializedOrderSource> local_source;
  OrderSource* source = source_;
  if (source == nullptr) {
    local_source.emplace(workload_->orders);
    source = &*local_source;
  } else if (Status st = source->Rewind(); !st.ok()) {
    // A source that cannot reach its first record has no meaningful run;
    // this is an environment failure on par with an invalid config.
    MRVD_LOG(Error) << "order source rewind failed: " << st;
    std::abort();
  }

  MetricsCollector metrics(dispatcher.name(), source->total_orders(),
                           grid_.num_regions(), config_.record_idle_samples);
  ObserverList observers;
  observers.Add(&metrics);
  observers.Add(extra);

  FleetState fleet(drivers_, grid_);
  OrderBook orders(*source, grid_, cost_model_, config_.alpha);
  ScenarioState scenario(script, drivers_, grid_);

  // Parallel dispatch plumbing, created once and reused by every batch.
  int threads = config_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                         : config_.num_threads;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RegionPartitioner> partitioner;
  std::unique_ptr<ShardLoadTracker> load_tracker;
  BatchExecution execution;
  int shards = 0;
  if (threads > 1) {
    shards = config_.ResolveShards(threads);
    pool = std::make_unique<ThreadPool>(threads);
    partitioner = std::make_unique<RegionPartitioner>(
        RegionPartitioner::RowBands(grid_, shards));
    execution.pool = pool.get();
    execution.partitioner = partitioner.get();
    if (config_.adaptive_sharding) {
      load_tracker = std::make_unique<ShardLoadTracker>(
          grid_.num_regions(), config_.load_ewma_alpha,
          config_.forecast_blend);
    }
  }
  BatchBuilder builder(grid_, cost_model_, forecast_, config_.window_seconds,
                       config_.reneging_beta, config_.candidate_mode,
                       pool != nullptr ? &execution : nullptr);
  AssignmentApplier applier(dispatcher.name(), config_.zero_pickup_travel);

  // The session (null = none) only traces and exports: each stage scope
  // below starts at the previous one's end reading and reads the clock
  // once on exit, into its BatchTimings field and, when tracing, its span.
  // The run's metrics registry lives in `metrics` and reaches the session
  // in one merge at the end, so every run's SimResult covers that run
  // alone.
  telemetry::TelemetrySession* const tele = config_.telemetry;

  // One context for the whole run, refilled in place every batch.
  std::unique_ptr<BatchContext> ctx = builder.NewContext();
  ctx->SetTelemetry(tele);

  const double delta = config_.batch_interval;
  const double horizon = config_.horizon_seconds;
  double now = 0.0;
  for (; now < horizon; now += delta) {
    telemetry::TraceSpan batch_span(tele, "batch");
    BatchTimings timings;
    // Consecutive stages share one reading per boundary (see BatchTimings).
    int64_t clock_ns = Stopwatch::NowNanos();

    // 1. Busy drivers finishing by `now` rejoin at their destination.
    {
      telemetry::TraceSpan span(tele, "release_finished",
                                &timings.release_seconds, &clock_ns);
      fleet.ReleaseFinished(now);
    }

    // 2. Riders that posted since the last batch enter the book; scenario
    //    events due by `now` apply (shifts, cancels, surge transitions);
    //    expired riders renege. Cancellation is processed before reneging,
    //    so a rider whose cancel and deadline land in the same batch counts
    //    as cancelled, not reneged.
    {
      telemetry::TraceSpan span(tele, "inject_arrivals",
                                &timings.inject_seconds, &clock_ns);
      orders.InjectArrivals(now);
    }
    {
      telemetry::TraceSpan span(tele, "scenario_events",
                                &timings.scenario_seconds, &clock_ns);
      scenario.ApplyDueEvents(now, &fleet, &orders, &observers);
    }
    {
      telemetry::TraceSpan span(tele, "remove_expired",
                                &timings.expire_seconds, &clock_ns);
      orders.RemoveExpired(now, &observers);
    }

    if (orders.waiting().empty() && !fleet.HasFreshDrivers() &&
        !fleet.HasBusyDrivers() && orders.Exhausted() &&
        scenario.Exhausted()) {
      break;  // nothing left to do
    }

    // 3. Load-aware repartition: when the tracked demand's imbalance over
    //    the current shard map crosses the hysteresis threshold, rebuild
    //    the row bands weight-balanced and install them before this batch's
    //    context (and its cached shard index) is materialised. Results are
    //    partition-invariant, so this only moves work between workers.
    if (load_tracker != nullptr && load_tracker->has_signal()) {
      const double imbalance =
          ShardLoadTracker::Imbalance(*partitioner, load_tracker->weights());
      if (imbalance > config_.rebalance_threshold) {
        auto rebalanced =
            std::make_unique<RegionPartitioner>(RegionPartitioner::RowBands(
                grid_, shards, load_tracker->weights()));
        if (!rebalanced->SamePartition(*partitioner)) {
          partitioner = std::move(rebalanced);
          execution.partitioner = partitioner.get();
          metrics.RecordRepartition();
        }
      }
    }

    // 4. Refill the batch context off the incremental counters, then
    // 5. capture idle-time estimates for freshly (re)joined drivers when
    //    the run records idle samples: their ET solves may be the batch's
    //    first snapshot reads. Either way the fresh list is consumed, as
    //    the end-of-day check reads it. The build stage starts where
    //    expire ended, so it also times the end-of-day check, step 3 and
    //    the rejoin-window advance.
    fleet.AdvanceRejoinWindow(now, config_.window_seconds);
    {
      telemetry::TraceSpan span(tele, "batch_build", &timings.build_seconds,
                                &clock_ns);
      builder.Fill(now, orders, fleet, scenario.demand_multipliers(),
                   ctx.get());
      fleet.CaptureIdleEstimates(config_.record_idle_samples ? ctx.get()
                                                             : nullptr);
    }
    observers.OnBatchBuilt(now, timings.build_seconds, *ctx);
    if (load_tracker != nullptr) load_tracker->Observe(ctx->snapshots());

    // 6. Dispatch, timed from a fresh reading so that it leaves out the
    //    hooks above.
    std::vector<Assignment> assignments;
    clock_ns = Stopwatch::NowNanos();
    {
      telemetry::TraceSpan span(tele, "dispatch", &timings.dispatch_seconds,
                                &clock_ns);
      dispatcher.Dispatch(*ctx, &assignments);
    }
    observers.OnDispatchDone(now, timings.dispatch_seconds, assignments);

    // 7. Apply assignments and compact the served riders out of the book.
    {
      telemetry::TraceSpan span(tele, "assignment_apply",
                                &timings.apply_seconds, &clock_ns);
      applier.Apply(now, *ctx, assignments, &fleet, &orders, &observers);
    }

    // Per-shard wall times reach the registry here, on the coordinating
    // thread: pool workers never touch it.
    metrics.RecordBatch(timings, assignments.size(), dispatcher.counters());
    observers.OnBatchTimings(now, timings);
    observers.OnBatchEnd(now);
  }

  if (tele != nullptr) tele->metrics().Merge(metrics.registry());
  // Anything left waiting (or never injected) at the horizon never got
  // served.
  observers.OnRunEnd(now, orders.UnservedRemainder());
  return metrics.TakeResult();
}

}  // namespace mrvd
