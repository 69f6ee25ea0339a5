#include "dispatch/irg_core.h"

#include <algorithm>
#include <queue>

namespace mrvd {

double ScoreFromIdleTrip(double idle_seconds, double trip_seconds,
                         GreedyObjective objective, double pickup_seconds) {
  switch (objective) {
    case GreedyObjective::kIdleRatio:
      // Eq. 17 plus an epsilon-scale pickup tie-break (see header).
      return idle_seconds / (trip_seconds + idle_seconds) +
             pickup_seconds * 1e-9;
    case GreedyObjective::kShortestTotalTime:
      return trip_seconds + idle_seconds + pickup_seconds * 1e-6;
  }
  return 0.0;
}

double ScoreFromIdle(double idle_seconds, const WaitingRider& rider,
                     GreedyObjective objective, double pickup_seconds) {
  return ScoreFromIdleTrip(idle_seconds, rider.trip_seconds, objective,
                           pickup_seconds);
}

double ScorePair(const BatchContext& ctx, const WaitingRider& rider,
                 GreedyObjective objective, int dest_extra_drivers,
                 double pickup_seconds) {
  double et = ctx.ExpectedIdleSeconds(rider.dropoff_region,
                                      dest_extra_drivers);
  return ScoreFromIdle(et, rider, objective, pickup_seconds);
}

IrgState RunGreedySelectionWithIdle(const BatchContext& ctx,
                                    const std::vector<CandidatePair>& pairs,
                                    GreedyObjective objective,
                                    const IdleTimeFn& idle) {
  IrgState state;
  if (pairs.empty()) return state;  // no per-region work without a pair
  state.extra_drivers.assign(static_cast<size_t>(ctx.grid().num_regions()),
                             0);
  state.rider_used.assign(ctx.riders().size(), false);
  state.driver_used.assign(ctx.drivers().size(), false);

  struct Entry {
    double score;
    int pair_index;
    int version;  ///< destination-region version at scoring time
    /// Strict total order (score, then pair index) so equal-score pops are
    /// deterministic and independent of heap construction order.
    bool operator>(const Entry& o) const {
      if (score != o.score) return score > o.score;
      return pair_index > o.pair_index;
    }
  };
  std::vector<int> region_version(
      static_cast<size_t>(ctx.grid().num_regions()), 0);

  // Initial scoring: every pair is scored at zero tentative supply, so one
  // dense ET(k, 0) table replaces a hash lookup per pair, and the heap is
  // built in O(P) from the scored vector. The comparator's strict total
  // order makes the pop sequence independent of heap layout, so this is
  // exactly the per-pair-push behaviour, faster.
  std::vector<double> idle_at_zero(
      static_cast<size_t>(ctx.grid().num_regions()), -1.0);
  for (const CandidatePair& cp : pairs) {
    idle_at_zero[static_cast<size_t>(
        ctx.riders()[static_cast<size_t>(cp.rider_index)].dropoff_region)] =
        0.0;
  }
  for (RegionId k = 0;
       k < static_cast<RegionId>(ctx.grid().num_regions()); ++k) {
    if (idle_at_zero[static_cast<size_t>(k)] == 0.0) {
      idle_at_zero[static_cast<size_t>(k)] = idle(k, 0);
    }
  }
  std::vector<Entry> entries;
  entries.reserve(pairs.size());
  for (int i = 0; i < static_cast<int>(pairs.size()); ++i) {
    const CandidatePair& cp = pairs[static_cast<size_t>(i)];
    const auto& rider = ctx.riders()[static_cast<size_t>(cp.rider_index)];
    double s = ScoreFromIdle(
        idle_at_zero[static_cast<size_t>(rider.dropoff_region)], rider,
        objective, cp.pickup_seconds);
    entries.push_back({s, i, 0});
  }
  // The lazy queue is consumed as a merge of two sources: the initial
  // entries sorted once (almost all pops are rider/driver-dead skips, and a
  // sorted scan beats heap sift-downs by a wide margin), plus a small
  // priority queue holding only the re-scored stale entries (hundreds, not
  // tens of thousands). Both orders follow the same strict total order, so
  // the merged pop sequence is exactly the single-heap one.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return b > a; });
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> requeue;
  size_t next_sorted = 0;

  while (next_sorted < entries.size() || !requeue.empty()) {
    Entry e;
    if (!requeue.empty() && (next_sorted >= entries.size() ||
                             !(requeue.top() > entries[next_sorted]))) {
      e = requeue.top();
      requeue.pop();
    } else {
      e = entries[next_sorted++];
    }
    const CandidatePair& cp = pairs[static_cast<size_t>(e.pair_index)];
    if (state.rider_used[static_cast<size_t>(cp.rider_index)] ||
        state.driver_used[static_cast<size_t>(cp.driver_index)]) {
      continue;
    }
    const WaitingRider& rider =
        ctx.riders()[static_cast<size_t>(cp.rider_index)];
    auto dest = static_cast<size_t>(rider.dropoff_region);
    if (e.version != region_version[dest]) {
      // Destination supply changed since scoring; refresh and reinsert.
      double s = ScoreFromIdle(
          idle(rider.dropoff_region, state.extra_drivers[dest]), rider,
          objective, cp.pickup_seconds);
      requeue.push({s, e.pair_index, region_version[dest]});
      continue;
    }
    // Accept.
    state.rider_used[static_cast<size_t>(cp.rider_index)] = true;
    state.driver_used[static_cast<size_t>(cp.driver_index)] = true;
    state.assignments.push_back({cp.rider_index, cp.driver_index});
    ++state.extra_drivers[dest];
    ++region_version[dest];
  }
  return state;
}

IrgState RunGreedySelection(const BatchContext& ctx,
                            const std::vector<CandidatePair>& pairs,
                            GreedyObjective objective) {
  return RunGreedySelectionWithIdle(
      ctx, pairs, objective, [&ctx](RegionId region, int extra) {
        return ctx.ExpectedIdleSeconds(region, extra);
      });
}

}  // namespace mrvd
