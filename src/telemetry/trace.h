// Trace spans: scoped RAII wall-time measurements recorded into per-thread
// append-only buffers, exported by the TelemetrySession as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Hot-path cost model:
//   * telemetry off (null session / tracing disabled): a TraceSpan is two
//     pointer checks — no clock read, no allocation, no lock — unless it
//     also times its scope into a `double*`, which costs the two clock
//     reads and nothing more;
//   * telemetry on: two monotonic clock reads (Stopwatch::NowNanos) and one
//     push_back into a buffer owned exclusively by the recording thread.
//     Locks are touched only when a chunk fills (every chunk_events spans)
//     to hand the full chunk to the session's drain queue.
//
// Span names/categories must be string literals (static storage): events
// store the pointers, never copies, so recording a span moves 32 bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrvd {
namespace telemetry {

class TelemetrySession;

/// One completed span, recorded at destruction time.
struct TraceEvent {
  const char* name = nullptr;      ///< static-storage string literal
  const char* category = nullptr;  ///< static-storage string literal
  int64_t start_ns = 0;            ///< Stopwatch::NowNanos at construction
  int64_t dur_ns = 0;
};

/// A batch of events handed from a recording thread to the drain side.
struct TraceChunk {
  int tid = 0;  ///< session-assigned trace thread id (>= 1)
  std::vector<TraceEvent> events;
};

/// Append-only event buffer owned by exactly one recording thread. The
/// owning thread is the only writer; when the current chunk reaches
/// chunk_events the buffer hands it to the session (one short lock) and
/// starts a fresh one. The session flushes the final partial chunk at
/// Finish(), when no instrumented work is in flight.
class ThreadTraceBuffer {
 public:
  ThreadTraceBuffer(TelemetrySession* session, int tid, size_t chunk_events);

  ThreadTraceBuffer(const ThreadTraceBuffer&) = delete;
  ThreadTraceBuffer& operator=(const ThreadTraceBuffer&) = delete;

  int tid() const { return tid_; }

  void Record(const TraceEvent& event) {
    events_.push_back(event);
    if (events_.size() >= chunk_events_) Flush();
  }

  /// Hands the current chunk to the session's drain queue. Called by the
  /// owning thread on overflow and by the session at Finish().
  void Flush();

 private:
  TelemetrySession* session_;
  int tid_;
  size_t chunk_events_;
  std::vector<TraceEvent> events_;
};

/// RAII span: stamps the start on construction, records the completed
/// event into the calling thread's buffer on destruction. Null/disabled
/// sessions make both ends no-ops, except that a non-null `seconds` always
/// receives the scope's wall time: one pair of clock reads then serves
/// both the span and the caller's own timing.
///
/// A non-null `clock_ns` shares boundary readings between consecutive
/// spans: the span starts at `*clock_ns`, a Stopwatch::NowNanos reading
/// already taken (the previous span's end), and stores its end reading
/// back there for the next span. Each span then reads the clock once.
class TraceSpan {
 public:
  TraceSpan(TelemetrySession* session, const char* name,
            const char* category = "mrvd", double* seconds = nullptr,
            int64_t* clock_ns = nullptr);
  TraceSpan(TelemetrySession* session, const char* name, double* seconds,
            int64_t* clock_ns = nullptr)
      : TraceSpan(session, name, "mrvd", seconds, clock_ns) {}
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  ThreadTraceBuffer* buffer_ = nullptr;  ///< null = no span recorded
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  double* seconds_ = nullptr;  ///< null = the scope's time is not wanted
  int64_t* clock_ns_ = nullptr;  ///< null = the end reading is not shared
  int64_t start_ns_ = 0;
};

}  // namespace telemetry
}  // namespace mrvd
