// LS (Algorithm 3): obtains the IRG assignment, then keeps replacing a
// driver's rider with a lower-idle-ratio valid alternative until no swap
// improves (convergence proved in Lemma 5.1; bounded by max_sweeps here).
//
// One sequential sweep in slot order, as in the paper. Every score reads
// ET from two dense tables over the candidate dropoff regions
// (dispatch/ls_plan.h):
//
//   et_cur[k]   = ET(k, extra[k])               supply as it stands
//   et_minus[k] = ET(k, max(extra[k] - 1, 0))   the slot's rider released
//
// filled once per Dispatch through the context's ET memo. A committed swap
// moves one unit of `extra` between the old and the new rider's dropoff
// regions and refreshes exactly those two entries, so the tables always
// hold the ET of the live supply and each score equals Algorithm 3's
// per-candidate ET lookup.
#include <vector>

#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "dispatch/ls_plan.h"

namespace mrvd {

namespace {

void RunSweeps(const BatchContext& ctx, const std::vector<CandidatePair>& pairs,
               int max_sweeps, IrgState* state, DispatchCounters* counters) {
  if (state->assignments.empty()) {
    // Nothing to swap (greedy assigns whenever there is a pair): count the
    // one sweep that would find no slot, with no per-region table.
    if (max_sweeps >= 1) ++counters->sweeps;
    return;
  }
  const LsSwapPlan plan = BuildLsSwapPlan(ctx, pairs, state->assignments);
  const auto& riders = ctx.riders();
  std::vector<int>& extra = state->extra_drivers;
  const auto num_regions = static_cast<size_t>(ctx.grid().num_regions());
  std::vector<double> et_cur(num_regions, 0.0);
  std::vector<double> et_minus(num_regions, 0.0);
  auto refresh = [&](RegionId k) {
    const int e = extra[static_cast<size_t>(k)];
    et_cur[static_cast<size_t>(k)] = ctx.ExpectedIdleSeconds(k, e);
    if (plan.needs_minus1[static_cast<size_t>(k)]) {
      et_minus[static_cast<size_t>(k)] =
          ctx.ExpectedIdleSeconds(k, e > 0 ? e - 1 : 0);
    }
  };
  for (RegionId k : plan.regions) refresh(k);

  bool changed = true;
  for (int sweep = 0; sweep < max_sweeps && changed; ++sweep) {
    ++counters->sweeps;
    counters->proposals += plan.num_slots;
    changed = false;
    for (int i = 0; i < plan.num_slots; ++i) {
      Assignment& a = state->assignments[static_cast<size_t>(i)];
      const WaitingRider& cur = riders[static_cast<size_t>(a.rider_index)];
      const RegionId cur_d = cur.dropoff_region;
      double best_ir =
          ScoreFromIdleTrip(et_cur[static_cast<size_t>(cur_d)],
                            cur.trip_seconds, GreedyObjective::kIdleRatio);
      int best = -1;
      for (int c = plan.cand_offsets[static_cast<size_t>(i)];
           c < plan.cand_offsets[static_cast<size_t>(i) + 1]; ++c) {
        const int r = plan.cand_rider[static_cast<size_t>(c)];
        if (r == a.rider_index || state->rider_used[static_cast<size_t>(r)]) {
          continue;
        }
        // Score the replacement as if the current rider were released: if
        // both end in the same region the net supply change is zero.
        const RegionId k = plan.cand_dropoff[static_cast<size_t>(c)];
        const double et = k == cur_d ? et_minus[static_cast<size_t>(k)]
                                     : et_cur[static_cast<size_t>(k)];
        const double cand_ir =
            ScoreFromIdleTrip(et, plan.cand_trip[static_cast<size_t>(c)],
                              GreedyObjective::kIdleRatio);
        if (cand_ir < best_ir) {
          best_ir = cand_ir;
          best = c;
        }
      }
      if (best < 0) continue;
      const int new_rider = plan.cand_rider[static_cast<size_t>(best)];
      const RegionId new_d = plan.cand_dropoff[static_cast<size_t>(best)];
      state->rider_used[static_cast<size_t>(a.rider_index)] = false;
      state->rider_used[static_cast<size_t>(new_rider)] = true;
      --extra[static_cast<size_t>(cur_d)];
      ++extra[static_cast<size_t>(new_d)];
      a.rider_index = new_rider;
      refresh(cur_d);
      refresh(new_d);
      changed = true;
      ++counters->swaps_applied;
    }
  }
}

class LocalSearchDispatcher final : public Dispatcher {
 public:
  explicit LocalSearchDispatcher(int max_sweeps) : max_sweeps_(max_sweeps) {}

  std::string name() const override { return "LS"; }

  const DispatchCounters* counters() const override { return &counters_; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    counters_ = {};
    const std::vector<CandidatePair>& pairs = ctx.ValidPairs();
    IrgState state =
        RunGreedySelection(ctx, pairs, GreedyObjective::kIdleRatio);
    RunSweeps(ctx, pairs, max_sweeps_, &state, &counters_);
    *out = std::move(state.assignments);
  }

 private:
  int max_sweeps_;
  DispatchCounters counters_;
};

}  // namespace

std::unique_ptr<Dispatcher> MakeLocalSearchDispatcher(int max_sweeps) {
  return std::make_unique<LocalSearchDispatcher>(max_sweeps);
}

}  // namespace mrvd
