// TelemetrySession: the unit of telemetry export — one MetricsRegistry
// plus the trace-span machinery (per-thread buffers, drain, Chrome-trace
// export) for one logical run (a Simulator::Run, a campaign cell, a bench
// rep). Attach it via SimConfig::telemetry / SimulationBuilder::
// WithTelemetry. A run measures the same with or without one: it keeps its
// own registry and merges it into an attached session's when it ends, so a
// null session only means no trace spans and nothing to export.
//
// Drain model (the ingest/worker decoupling shape): recording threads only
// ever append to a thread-local ThreadTraceBuffer; full chunks are handed
// to the session under a short lock. With async_drain a dedicated drainer
// thread (the session's only thread) moves queued chunks into the drained
// store while the run is still executing — the hot path never pays for
// accumulation beyond the hand-off. With async_drain off the hand-off
// itself stores the chunk (synchronous deterministic mode: no extra thread,
// replay-friendly, used by campaign cells and tests).
//
// Lifecycle: record -> Finish() -> read. Finish() must be called when no
// instrumented work is in flight (after Simulator::Run returns this always
// holds: the engine records every span on the calling thread); it flushes
// every thread's partial chunk, stops and joins the drainer, and freezes
// the session. WriteChromeTrace/drained_events require a finished session.
// Metric counts are deterministic; trace timing values are execution
// metadata (see telemetry/metrics.h for the contract).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mrvd {
namespace telemetry {

struct TelemetryConfig {
  /// Record trace spans (metrics are always collected). Off: TraceSpan is
  /// a no-op and the session never starts a drainer.
  bool tracing = true;

  /// Drain full chunks on a background thread (off the hot path). False =
  /// synchronous deterministic mode: chunks are stored at hand-off time on
  /// the recording thread, no extra thread exists.
  bool async_drain = true;

  /// Spans per chunk before a buffer hands off to the drain queue.
  size_t chunk_events = 4096;
};

class TelemetrySession {
 public:
  explicit TelemetrySession(const TelemetryConfig& config = {});
  ~TelemetrySession();  ///< calls Finish() if the caller has not

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  const TelemetryConfig& config() const { return config_; }
  bool tracing() const { return config_.tracing && !finished_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The calling thread's trace buffer, created and registered on first
  /// use (tids are assigned in registration order, starting at 1) and
  /// cached thread-locally per session. Null once the session finished.
  ThreadTraceBuffer* BufferForCurrentThread();

  /// Hands a full chunk to the drain side (called by ThreadTraceBuffer).
  void EnqueueChunk(TraceChunk chunk);

  /// Flushes all partial buffers, stops and joins the drainer, freezes the
  /// session. Idempotent. Must not race instrumented work (see file
  /// comment).
  void Finish();

  bool finished() const { return finished_; }

  /// Total spans drained over the session's lifetime (finished sessions).
  int64_t drained_events() const;

  /// Writes the drained spans as Chrome trace-event JSON ({"traceEvents":
  /// [...]}, ph:"X" complete events plus thread_name metadata), sorted by
  /// (tid, start, -duration) so nested spans follow their parents.
  /// Requires Finish(); loadable in Perfetto / chrome://tracing.
  Status WriteChromeTrace(const std::string& path) const;

  /// The metrics registry as a standalone JSON document.
  std::string MetricsJson() const { return metrics_.ToJson(); }

 private:
  void DrainLoop();

  const uint64_t id_;  ///< process-unique; keys the thread-local cache
  const TelemetryConfig config_;
  MetricsRegistry metrics_;

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::unique_ptr<ThreadTraceBuffer>> buffers_
      MRVD_GUARDED_BY(mu_);
  std::vector<std::pair<int, std::string>> thread_names_ MRVD_GUARDED_BY(mu_);
  std::vector<TraceChunk> queue_ MRVD_GUARDED_BY(mu_);     ///< awaiting drain
  std::vector<TraceChunk> drained_ MRVD_GUARDED_BY(mu_);   ///< final store
  int64_t drained_events_ MRVD_GUARDED_BY(mu_) = 0;
  bool stop_ MRVD_GUARDED_BY(mu_) = false;

  std::thread drainer_;  ///< joinable only in async_drain mode
  bool finished_ = false;
};

}  // namespace telemetry
}  // namespace mrvd
