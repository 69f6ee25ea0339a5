#include "telemetry/trace.h"

#include <utility>

#include "telemetry/session.h"
#include "util/stopwatch.h"

namespace mrvd {
namespace telemetry {

ThreadTraceBuffer::ThreadTraceBuffer(TelemetrySession* session, int tid,
                                     size_t chunk_events)
    : session_(session), tid_(tid), chunk_events_(chunk_events) {
  events_.reserve(chunk_events_);
}

void ThreadTraceBuffer::Flush() {
  if (events_.empty()) return;
  TraceChunk chunk;
  chunk.tid = tid_;
  chunk.events = std::move(events_);
  events_ = {};
  events_.reserve(chunk_events_);
  session_->EnqueueChunk(std::move(chunk));
}

TraceSpan::TraceSpan(TelemetrySession* session, const char* name,
                     const char* category, double* seconds,
                     int64_t* clock_ns)
    : name_(name),
      category_(category),
      seconds_(seconds),
      clock_ns_(clock_ns) {
  if (session != nullptr && session->tracing()) {
    buffer_ = session->BufferForCurrentThread();
  }
  if (clock_ns_ != nullptr) {
    start_ns_ = *clock_ns_;
  } else if (buffer_ != nullptr || seconds_ != nullptr) {
    start_ns_ = Stopwatch::NowNanos();
  }
}

TraceSpan::~TraceSpan() {
  if (buffer_ == nullptr && seconds_ == nullptr && clock_ns_ == nullptr) {
    return;
  }
  const int64_t end_ns = Stopwatch::NowNanos();
  const int64_t dur_ns = end_ns - start_ns_;
  if (clock_ns_ != nullptr) *clock_ns_ = end_ns;
  if (seconds_ != nullptr) *seconds_ = static_cast<double>(dur_ns) * 1e-9;
  if (buffer_ != nullptr) {
    buffer_->Record({name_, category_, start_ns_, dur_ns});
  }
}

}  // namespace telemetry
}  // namespace mrvd
