// Driver-lifecycle stage of the staged engine: owns every driver's state,
// the busy-completion heap, and the *incremental* supply-side region
// counters the BatchBuilder reads instead of rescanning the fleet each
// batch:
//
//   * available_by_region() — |D_k| per region, updated on assignment and
//     rejoin;
//   * rejoining_in_window() — the rejoined-driver schedule |D̂_k| over
//     (now, now + t_c] (§3.1.2: supply is known from the schedules of
//     active drivers), maintained by a window-entry heap plus a per-driver
//     "counted" flag so each completion event is counted while — and only
//     while — it lies inside the sliding window.
//
// Both counters are integer deltas of the quantities the monolithic engine
// recounted per batch, so every snapshot they feed is bit-identical. The
// same events keep a bitset of the dispatchable drivers, which the builder
// walks instead of scanning every DriverState.
#pragma once

#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "geo/grid.h"
#include "sim/batch.h"
#include "workload/types.h"

namespace mrvd {

/// Mutable state of one driver across the day.
struct DriverState {
  DriverId id = -1;  ///< workload DriverSpec::id (scenario scripts' space)
  LatLon location;
  RegionId region = kInvalidRegion;
  double available_since = 0.0;
  bool busy = false;
  double busy_until = 0.0;
  LatLon busy_dest;
  RegionId busy_dest_region = kInvalidRegion;
  /// Idle-time estimate captured when the driver (re)joined a queue.
  double pending_estimate = -1.0;  ///< < 0: none
  /// True while this driver's completion is counted in rejoining_in_window_.
  bool counted_in_window = false;
  /// Off duty (scenario shift change): out of every supply counter and
  /// never materialised into a batch. Mutually exclusive with `busy`.
  bool signed_off = false;
  /// Busy driver that will sign off when the current trip completes.
  bool sign_off_pending = false;

  /// True if the driver can receive assignments in the next batch.
  bool Dispatchable() const { return !busy && !signed_off; }
};

class FleetState {
 public:
  FleetState(const std::vector<DriverSpec>& drivers, const Grid& grid);
  FleetState(const Workload& workload, const Grid& grid)
      : FleetState(workload.drivers, grid) {}

  int size() const { return static_cast<int>(drivers_.size()); }
  const DriverState& driver(int j) const {
    return drivers_[static_cast<size_t>(j)];
  }
  const std::vector<DriverState>& drivers() const { return drivers_; }

  /// Algorithm 1 step: busy drivers whose trip completes by `now` rejoin
  /// the platform at their dropoff (location, region, available_since all
  /// advance) and are queued for a fresh idle-time estimate.
  void ReleaseFinished(double now);

  /// Slides the rejoined-driver window to (now, now + window_seconds]:
  /// completion events entering the window start counting toward their
  /// dropoff region's predicted supply. Call once per batch, after
  /// ReleaseFinished and before the snapshot build.
  void AdvanceRejoinWindow(double now, double window_seconds);

  /// Marks driver `j` busy until `busy_until`, bound for `dest`; the
  /// completion event is scheduled into the rejoin window.
  void MarkBusy(int j, double busy_until, const LatLon& dest,
                RegionId dest_region);

  /// Scenario shift change: the driver leaves the supply. An idle driver
  /// leaves the available counters immediately; a busy driver finishes the
  /// current trip first (sign-off pending) and its completion event leaves
  /// the rejoin-window schedule at once — the region's predicted supply
  /// must not count a driver that will not rejoin. Returns false (no-op)
  /// if the driver is already off duty or pending sign-off.
  bool SignOff(int j);

  /// Scenario shift change: the driver re-enters the supply at its current
  /// location, incrementally (counter deltas plus the fresh-driver queue —
  /// never a rescan). Cancels a pending sign-off (the driver simply stays
  /// on duty and rejoins normally). Returns false if the driver is already
  /// on duty.
  bool SignOn(int j, double now);

  /// Captures ET estimates for drivers that (re)joined since the last call
  /// (skipped when `ctx` is null, but the fresh list is always consumed).
  void CaptureIdleEstimates(const BatchContext* ctx);

  /// Clears a driver's captured estimate once it has been consumed.
  void ClearIdleEstimate(int j) {
    drivers_[static_cast<size_t>(j)].pending_estimate = -1.0;
  }

  /// |D_k|: available (non-busy) drivers currently in each region.
  const std::vector<int64_t>& available_by_region() const {
    return available_by_region_;
  }

  /// |D̂_k|: busy drivers rejoining region k within the current window.
  const std::vector<int32_t>& rejoining_in_window() const {
    return rejoining_in_window_;
  }

  /// Calls fn(j) for every driver j with driver(j).Dispatchable(), in
  /// ascending index order. Kept up to date by the same events that move
  /// available_by_region(), so it costs O(fleet / 64 + dispatchable).
  template <typename Fn>
  void ForEachDispatchable(Fn&& fn) const {
    for (size_t w = 0; w < dispatchable_.size(); ++w) {
      for (uint64_t bits = dispatchable_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<int>(w * 64) + std::countr_zero(bits));
      }
    }
  }

  int64_t available_count() const { return available_count_; }
  bool HasBusyDrivers() const { return !busy_heap_.empty(); }
  bool HasFreshDrivers() const { return !fresh_drivers_.empty(); }

 private:
  using TimedDriver = std::pair<double, int>;  ///< (time, driver index)
  using MinHeap = std::priority_queue<TimedDriver, std::vector<TimedDriver>,
                                      std::greater<>>;

  /// Sets (`on`) or clears driver j's bit in the dispatchable set.
  void SetDispatchable(int j, bool on) {
    const uint64_t bit = uint64_t{1} << (static_cast<unsigned>(j) % 64);
    uint64_t& word = dispatchable_[static_cast<size_t>(j) / 64];
    word = on ? (word | bit) : (word & ~bit);
  }

  std::vector<DriverState> drivers_;
  MinHeap busy_heap_;    ///< (busy_until, j): pending trip completions
  MinHeap window_heap_;  ///< (busy_until, j): not yet inside the window
  std::vector<int> fresh_drivers_;  ///< (re)joined since the last capture
  std::vector<int64_t> available_by_region_;
  std::vector<int32_t> rejoining_in_window_;
  std::vector<uint64_t> dispatchable_;  ///< bit j: driver(j).Dispatchable()
  int64_t available_count_ = 0;
};

}  // namespace mrvd
