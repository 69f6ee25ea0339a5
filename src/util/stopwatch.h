// Wall-clock stopwatch for batch-latency measurements (Figures 7b-10b).
#pragma once

#include <chrono>
#include <cstdint>

namespace mrvd {

/// Monotonic stopwatch; Elapsed* can be read repeatedly without stopping.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Monotonic nanoseconds since an arbitrary (per-process) epoch — the one
  /// sanctioned raw-clock read outside Stopwatch itself (see the
  /// banned-wallclock lint rule). Telemetry trace spans stamp their
  /// start/duration with this so every span of a process shares one
  /// timebase.
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mrvd
