// Derives scripted scenario days from a base Workload: a two-shift fleet
// (half the drivers work the morning, half the evening), a per-order
// cancellation hazard (riders withdraw before their deadline), and
// rush-hour demand surges. Deterministic: the same (workload, config)
// always produces the same script.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/grid.h"
#include "scenario/script.h"
#include "workload/types.h"

namespace mrvd {

struct ScenarioDayConfig {
  /// Two-shift fleet: the second half of the fleet (by driver index) is off
  /// duty until `shift_change_seconds`; the first half signs off
  /// `shift_overlap_seconds` later, so both shifts overlap briefly.
  bool two_shift_fleet = false;
  double shift_change_seconds = 0.5 * kSecondsPerDay;
  double shift_overlap_seconds = 1800.0;

  /// Cancellation hazard: each order independently cancels with this
  /// probability, at a uniform fraction of its patience window
  /// (request -> deadline) drawn from [fraction_lo, fraction_hi]. Riders
  /// served before the cancellation moment simply keep their ride.
  double cancel_probability = 0.0;
  double cancel_fraction_lo = 0.2;
  double cancel_fraction_hi = 0.9;

  /// Demand surges (e.g. RushHourSurge below), applied verbatim.
  std::vector<SurgeWindow> surges;

  uint64_t seed = 20190417;  ///< cancellation-draw seed
};

/// City-wide surge window helper.
SurgeWindow RushHourSurge(double start_seconds, double end_seconds,
                          double multiplier);

/// Surge window covering every region of grid rows [row_lo, row_hi]
/// (inclusive; clamped to the grid) — the spatially concentrated analogue
/// of RushHourSurge.
SurgeWindow RowBandSurge(const Grid& grid, int row_lo, int row_hi,
                         double start_seconds, double end_seconds,
                         double multiplier);

/// Returns a copy of `workload` where each order requesting inside
/// [start_seconds, end_seconds) is, with probability `share`, relocated
/// (pickup and dropoff) into a uniformly random cell of grid rows
/// [row_lo, row_hi] — a rush hour funneling that share of arrivals into a
/// few rows. Request times, deadlines, ids and order sequence are
/// preserved; drivers are untouched. Deterministic in `seed`.
Workload SkewWorkloadRows(const Workload& workload, const Grid& grid,
                          double start_seconds, double end_seconds,
                          double share, int row_lo, int row_hi,
                          uint64_t seed);

/// Builds the scripted day. Driver ids come from workload.drivers; cancel
/// order ids from workload.orders.
ScenarioScript BuildScenarioDay(const Workload& workload,
                                const ScenarioDayConfig& config);

}  // namespace mrvd
