// Shared lazy-greedy core of IRG (Algorithm 2) and SHORT (Appendix C).
//
// Both algorithms repeatedly pick the best-scored valid pair, where the
// score depends on the expected idle time of the destination region — which
// rises as earlier selections promise more rejoining drivers to that region
// (line 11 of Algorithm 2). The selection loop uses a lazy priority queue:
// entries carry the destination region's version; popping a stale entry
// re-scores and re-inserts it instead of re-sorting everything. Ties are
// broken by pair index, so the pop order is a strict total order and the
// selection is deterministic regardless of how the heap was built.
#pragma once

#include <functional>
#include <vector>

#include "sim/batch.h"

namespace mrvd {

enum class GreedyObjective {
  /// IRG: minimize IR = ET / (cost + ET)  (Eq. 17).
  kIdleRatio,
  /// SHORT: minimize cost + ET (maximizes served orders, Appendix C).
  kShortestTotalTime,
};

/// The greedy result. Every vector is empty when there was no pair.
struct IrgState {
  std::vector<Assignment> assignments;
  /// Per-region count of selections whose rider destination is the region
  /// (the tentative extra rejoining drivers priced into ET).
  std::vector<int> extra_drivers;
  /// Which rider/driver context indices are matched.
  std::vector<char> rider_used;
  std::vector<char> driver_used;
};

/// ET oracle: seconds of expected idle time for (region, extra_drivers).
/// RunGreedySelection passes BatchContext::ExpectedIdleSeconds.
using IdleTimeFn = std::function<double(RegionId, int)>;

/// Score from an already-resolved ET value (pure arithmetic shared by every
/// ET oracle).
double ScoreFromIdle(double idle_seconds, const WaitingRider& rider,
                     GreedyObjective objective, double pickup_seconds = 0.0);

/// ScoreFromIdle with the rider's trip time passed directly — for SoA hot
/// loops (the LS sweep) that carry trip seconds in a dense array
/// instead of dereferencing a WaitingRider. ScoreFromIdle delegates here,
/// so both spellings evaluate the one compiled expression and stay
/// bit-identical.
double ScoreFromIdleTrip(double idle_seconds, double trip_seconds,
                         GreedyObjective objective,
                         double pickup_seconds = 0.0);

/// Scores a pair under `objective` given the current tentative supply. The
/// paper's IR (Eq. 17) depends only on the rider; `pickup_seconds` adds an
/// infinitesimal tie-break so that among equal-IR pairs the closer driver
/// is preferred (pure implementation detail: it only reorders exact ties).
double ScorePair(const BatchContext& ctx, const WaitingRider& rider,
                 GreedyObjective objective, int dest_extra_drivers,
                 double pickup_seconds = 0.0);

/// Runs the greedy selection over `pairs` and returns the final state.
IrgState RunGreedySelection(const BatchContext& ctx,
                            const std::vector<CandidatePair>& pairs,
                            GreedyObjective objective);

/// Greedy selection with ET queries routed through `idle`, for callers that
/// count or time the solves; semantics are identical to RunGreedySelection
/// when `idle` returns the same values.
IrgState RunGreedySelectionWithIdle(const BatchContext& ctx,
                                    const std::vector<CandidatePair>& pairs,
                                    GreedyObjective objective,
                                    const IdleTimeFn& idle);

}  // namespace mrvd
