// ScenarioScript: a builder for time-ordered scenario event streams, and
// EventStream, the cursor Simulator::Run drains as batch time advances.
// Scripts are data, not behaviour — the engine owns all semantics — so the
// same script can replay against any dispatcher.
#pragma once

#include <cstddef>
#include <vector>

#include "scenario/events.h"

namespace mrvd {

/// Accumulates scenario events in any order; EventStream time-orders them.
/// Builder calls return *this so scripts can be written fluently:
///
///   ScenarioScript script;
///   script.SignOff(9 * 3600.0, 42).Cancel(9.5 * 3600.0, 1007)
///         .Surge({8 * 3600.0, 10 * 3600.0, 1.8, {}});
class ScenarioScript {
 public:
  ScenarioScript& SignOn(double time, DriverId driver_id);
  ScenarioScript& SignOff(double time, DriverId driver_id);
  ScenarioScript& Cancel(double time, OrderId order_id);

  /// Registers a surge window and its begin/end events. Windows with
  /// end <= start or multiplier <= 0 are ignored.
  ScenarioScript& Surge(SurgeWindow window);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  /// The raw events, in insertion order (see EventStream for time order).
  const std::vector<ScenarioEvent>& events() const { return events_; }

  /// Registered surge windows; ScenarioEvent::surge_index addresses this.
  const std::vector<SurgeWindow>& surges() const { return surges_; }

 private:
  std::vector<ScenarioEvent> events_;
  std::vector<SurgeWindow> surges_;
};

/// Time-ordered cursor over a script's events (stable: insertion order
/// breaks ties), merged by the engine with the arrival/completion timeline.
class EventStream {
 public:
  EventStream() = default;  ///< empty stream (no script)
  explicit EventStream(const ScenarioScript& script);

  bool Exhausted() const { return next_ >= events_.size(); }

  /// The next event with time <= now, or null if none is due.
  const ScenarioEvent* PeekDue(double now) const {
    if (Exhausted() || events_[next_].time > now) return nullptr;
    return &events_[next_];
  }

  /// Consumes the event PeekDue returned.
  void Pop() { ++next_; }

 private:
  std::vector<ScenarioEvent> events_;  ///< stable-sorted by time
  size_t next_ = 0;
};

}  // namespace mrvd
