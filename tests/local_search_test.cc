// Direct unit tests for LS swap semantics (Algorithm 3):
//   * the same-dropoff-region `extra` adjustment (scoring a candidate as if
//     the current rider were released) actually flips swap decisions,
//   * the max_sweeps bound and the no-swap convergence exit,
//   * the candidate layout the sweep scans follows the canonical pair order,
//   * the dispatcher's sweep over dense ET tables reproduces a verbatim
//     copy of the per-candidate ScorePair sweep bit for bit — assignments,
//     sweeps, swaps and proposals — at several sweep caps.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dispatch/candidates.h"
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "dispatch/ls_plan.h"
#include "geo/travel.h"
#include "random_batch_test_helpers.h"
#include "sim/batch.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ------------------------------------------------------ reference sweep

/// The reference: Algorithm 3's sweep scoring every candidate with its own
/// ScorePair (ET memo lookup) against the live supply. Kept verbatim from
/// the dispatcher's earlier sequential path.
void RunSerialSweeps(const BatchContext& ctx,
                     const std::vector<CandidatePair>& pairs, int max_sweeps,
                     IrgState* state, DispatchCounters* counters) {
  // Per-driver candidate lists R_j: valid riders for each matched driver.
  std::vector<std::vector<const CandidatePair*>> by_driver(
      ctx.drivers().size());
  for (const auto& cp : pairs) {
    by_driver[static_cast<size_t>(cp.driver_index)].push_back(&cp);
  }

  auto ir = [&](int rider_index) {
    const WaitingRider& r = ctx.riders()[static_cast<size_t>(rider_index)];
    return ScorePair(
        ctx, r, GreedyObjective::kIdleRatio,
        state->extra_drivers[static_cast<size_t>(r.dropoff_region)]);
  };

  bool changed = true;
  for (int sweep = 0; sweep < max_sweeps && changed; ++sweep) {
    ++counters->sweeps;
    counters->proposals += static_cast<int64_t>(state->assignments.size());
    changed = false;
    for (auto& a : state->assignments) {
      double current_ir = ir(a.rider_index);
      int best_rider = -1;
      double best_ir = current_ir;
      for (const CandidatePair* cp :
           by_driver[static_cast<size_t>(a.driver_index)]) {
        if (cp->rider_index == a.rider_index) continue;
        if (state->rider_used[static_cast<size_t>(cp->rider_index)]) continue;
        // Score the replacement as if the current rider were released:
        // if both end in the same region the net supply change is zero.
        const WaitingRider& cand =
            ctx.riders()[static_cast<size_t>(cp->rider_index)];
        const WaitingRider& cur =
            ctx.riders()[static_cast<size_t>(a.rider_index)];
        int extra =
            state->extra_drivers[static_cast<size_t>(cand.dropoff_region)];
        if (cand.dropoff_region == cur.dropoff_region) extra -= 1;
        double cand_ir = ScorePair(ctx, cand, GreedyObjective::kIdleRatio,
                                   extra < 0 ? 0 : extra);
        if (cand_ir < best_ir) {
          best_ir = cand_ir;
          best_rider = cp->rider_index;
        }
      }
      if (best_rider >= 0) {
        const WaitingRider& old_r =
            ctx.riders()[static_cast<size_t>(a.rider_index)];
        const WaitingRider& new_r =
            ctx.riders()[static_cast<size_t>(best_rider)];
        state->rider_used[static_cast<size_t>(a.rider_index)] = false;
        state->rider_used[static_cast<size_t>(best_rider)] = true;
        --state->extra_drivers[static_cast<size_t>(old_r.dropoff_region)];
        ++state->extra_drivers[static_cast<size_t>(new_r.dropoff_region)];
        a.rider_index = best_rider;
        changed = true;
        ++counters->swaps_applied;
      }
    }
  }
}

struct LsOutcome {
  std::vector<Assignment> assignments;
  DispatchCounters counters;
};

/// IRG's selection refined by the reference sweep, on `ctx`.
LsOutcome RunReference(const BatchContext& ctx, int max_sweeps) {
  std::vector<CandidatePair> pairs = GenerateValidPairs(ctx);
  IrgState state =
      RunGreedySelection(ctx, pairs, GreedyObjective::kIdleRatio);
  LsOutcome out;
  RunSerialSweeps(ctx, pairs, max_sweeps, &state, &out.counters);
  out.assignments = std::move(state.assignments);
  return out;
}

/// The LS dispatcher's result on `ctx`.
LsOutcome RunDispatcher(const BatchContext& ctx, int max_sweeps) {
  auto ls = MakeLocalSearchDispatcher(max_sweeps);
  LsOutcome out;
  ls->Dispatch(ctx, &out.assignments);
  const DispatchCounters* c = ls->counters();
  EXPECT_NE(c, nullptr);
  if (c != nullptr) out.counters = *c;
  return out;
}

void ExpectSameOutcome(const LsOutcome& want, const LsOutcome& got,
                       const std::string& label) {
  ASSERT_EQ(got.assignments.size(), want.assignments.size()) << label;
  for (size_t i = 0; i < want.assignments.size(); ++i) {
    ASSERT_EQ(got.assignments[i].rider_index, want.assignments[i].rider_index)
        << "slot " << i << ", " << label;
    ASSERT_EQ(got.assignments[i].driver_index,
              want.assignments[i].driver_index)
        << "slot " << i << ", " << label;
  }
  EXPECT_EQ(got.counters.sweeps, want.counters.sweeps) << label;
  EXPECT_EQ(got.counters.swaps_applied, want.counters.swaps_applied) << label;
  EXPECT_EQ(got.counters.proposals, want.counters.proposals) << label;
}

// ------------------------------------------------- hand-built swap cases

// A congested destination region makes ET strictly increasing in the
// tentative extra-driver count, which is what the same-region adjustment
// trades on.
class LocalSearchSwapTest : public ::testing::Test {
 protected:
  LocalSearchSwapTest()
      : grid_(kNycBoundingBox, 4, 4),
        cost_(10.0, 1.0),
        ctx_(/*now=*/1000.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_) {}

  WaitingRider MakeRider(OrderId id, LatLon pickup, LatLon dropoff,
                         double trip_seconds) {
    WaitingRider r;
    r.order_id = id;
    r.pickup = pickup;
    r.dropoff = dropoff;
    r.request_time = 990.0;
    r.pickup_deadline = 1400.0;
    r.trip_seconds = trip_seconds;
    r.revenue = trip_seconds;
    r.pickup_region = grid_.RegionOf(pickup);
    r.dropoff_region = grid_.RegionOf(dropoff);
    return r;
  }

  AvailableDriver MakeDriver(DriverId id, LatLon loc) {
    AvailableDriver d;
    d.driver_id = id;
    d.location = loc;
    d.region = grid_.RegionOf(loc);
    d.available_since = 900.0;
    return d;
  }

  void FinalizeSnapshots(
      const std::vector<std::pair<RegionId, double>>& predicted_riders = {}) {
    std::vector<RegionSnapshot> snaps(
        static_cast<size_t>(grid_.num_regions()));
    for (const auto& r : ctx_.riders()) {
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    }
    for (const auto& d : ctx_.drivers()) {
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    }
    for (auto [region, count] : predicted_riders) {
      snaps[static_cast<size_t>(region)].predicted_riders = count;
    }
    ctx_.SetSnapshots(std::move(snaps));
  }

  /// One driver, two riders with near-equal trips into the same congested
  /// region: the swap only improves because the candidate is scored at
  /// extra-1 (the current rider released), and after swapping the released
  /// rider becomes the better candidate again — a deliberate 2-cycle that
  /// never converges, so it exercises both the adjustment and the
  /// max_sweeps bound. Returns the hot region.
  RegionId BuildSameRegionOscillator() {
    LatLon origin{40.70, -74.00};
    LatLon hot_dest{40.88, -73.80};
    EXPECT_NE(grid_.RegionOf(origin), grid_.RegionOf(hot_dest));
    ctx_.AddRider(MakeRider(0, origin, hot_dest, /*trip_seconds=*/4000.0));
    ctx_.AddRider(MakeRider(1, origin, hot_dest, /*trip_seconds=*/3999.0));
    ctx_.AddDriver(MakeDriver(0, origin));
    RegionId hot = grid_.RegionOf(hot_dest);
    // Low predicted demand puts the destination in the congested-driver
    // regime, where each extra rejoining driver lengthens the queue and ET
    // strictly rises with `extra` (see dispatch_test's monotonicity case —
    // heavy rider surplus can invert this).
    FinalizeSnapshots({{hot, 2.0}});
    return hot;
  }

  Grid grid_;
  StraightLineCostModel cost_;
  BatchContext ctx_;
};

TEST_F(LocalSearchSwapTest, SameRegionCandidateScoredWithCurrentReleased) {
  RegionId hot = BuildSameRegionOscillator();

  // Congestion makes ET strictly increasing in extra, so the adjustment
  // matters: at the *same* supply the shorter-trip candidate scores worse
  // than the current rider, at extra-1 it scores better.
  double et0 = ctx_.ExpectedIdleSeconds(hot, 0);
  double et1 = ctx_.ExpectedIdleSeconds(hot, 1);
  ASSERT_LT(et0, et1);
  double cur_ir = ScorePair(ctx_, ctx_.riders()[0],
                            GreedyObjective::kIdleRatio, 1);
  ASSERT_GT(ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 1),
            cur_ir);
  ASSERT_LT(ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 0),
            cur_ir);

  // Greedy assigns rider 0 (longer trip -> lower IR); one sweep must then
  // swap to rider 1, which only improves under the extra-1 scoring.
  LsOutcome got = RunDispatcher(ctx_, /*max_sweeps=*/1);
  ASSERT_EQ(got.assignments.size(), 1u);
  EXPECT_EQ(got.assignments[0].rider_index, 1);
  EXPECT_EQ(got.counters.sweeps, 1);
  EXPECT_EQ(got.counters.swaps_applied, 1);
  ExpectSameOutcome(RunReference(ctx_, 1), got, "max_sweeps=1");
}

TEST_F(LocalSearchSwapTest, MaxSweepsBoundsTheOscillation) {
  BuildSameRegionOscillator();
  // The 2-cycle swaps every sweep, so the dispatcher must run exactly
  // max_sweeps sweeps and the final rider is determined by sweep parity.
  for (int max_sweeps : {1, 2, 3, 6}) {
    const std::string label = "max_sweeps=" + std::to_string(max_sweeps);
    LsOutcome got = RunDispatcher(ctx_, max_sweeps);
    ASSERT_EQ(got.assignments.size(), 1u);
    EXPECT_EQ(got.assignments[0].rider_index, max_sweeps % 2 == 1 ? 1 : 0)
        << label;
    EXPECT_EQ(got.counters.sweeps, max_sweeps);
    EXPECT_EQ(got.counters.swaps_applied, max_sweeps);
    ExpectSameOutcome(RunReference(ctx_, max_sweeps), got, label);
  }
}

TEST_F(LocalSearchSwapTest, ConvergedAssignmentExitsAfterOneSweep) {
  // Distinct cold destination regions: greedy already picks the argmin, the
  // first sweep finds no improving swap and the loop exits well under the
  // max_sweeps budget.
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.62, -74.01}, 400.0));
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.75, -73.92}, 4000.0));
  ctx_.AddDriver(MakeDriver(0, origin));
  ASSERT_NE(ctx_.riders()[0].dropoff_region, ctx_.riders()[1].dropoff_region);
  FinalizeSnapshots();

  LsOutcome got = RunDispatcher(ctx_, /*max_sweeps=*/16);
  ASSERT_EQ(got.assignments.size(), 1u);
  EXPECT_EQ(got.assignments[0].rider_index, 1);  // long trip -> lower IR
  EXPECT_EQ(got.counters.sweeps, 1);
  EXPECT_EQ(got.counters.swaps_applied, 0);
  ExpectSameOutcome(RunReference(ctx_, 16), got, "max_sweeps=16");
}

TEST_F(LocalSearchSwapTest, AnEqualScoreIsNoImprovement) {
  // Two cold destination regions whose ET sits at the cap whatever the
  // supply, and equal trips: both riders score the same IR for the driver.
  // Only a strictly better score may swap (Lemma 5.1's convergence argument
  // needs strict improvement), so greedy's pick (the lower pair index)
  // stays and the sweep swaps nothing.
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.88, -74.02}, 1000.0));
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.52, -73.72}, 1000.0));
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots();
  const WaitingRider& r0 = ctx_.riders()[0];
  const WaitingRider& r1 = ctx_.riders()[1];
  ASSERT_NE(r0.dropoff_region, r1.dropoff_region);
  ASSERT_EQ(ScorePair(ctx_, r0, GreedyObjective::kIdleRatio, 1),
            ScorePair(ctx_, r1, GreedyObjective::kIdleRatio, 0));

  LsOutcome got = RunDispatcher(ctx_, /*max_sweeps=*/16);
  ASSERT_EQ(got.assignments.size(), 1u);
  EXPECT_EQ(got.assignments[0].rider_index, 0);
  EXPECT_EQ(got.counters.sweeps, 1);
  EXPECT_EQ(got.counters.swaps_applied, 0);
  ExpectSameOutcome(RunReference(ctx_, 16), got, "max_sweeps=16");
}

TEST_F(LocalSearchSwapTest, NoAssignmentsCountsOneEmptySweep) {
  // A rider with no driver: greedy selects nothing, and the sweep still
  // runs (and counts) one pass over the empty assignment list.
  ctx_.AddRider(MakeRider(0, LatLon{40.70, -74.00}, LatLon{40.75, -73.92},
                          600.0));
  FinalizeSnapshots();
  for (int max_sweeps : {1, 16}) {
    const std::string label = "max_sweeps=" + std::to_string(max_sweeps);
    LsOutcome got = RunDispatcher(ctx_, max_sweeps);
    EXPECT_TRUE(got.assignments.empty()) << label;
    EXPECT_EQ(got.counters.sweeps, 1) << label;
    EXPECT_EQ(got.counters.proposals, 0) << label;
    EXPECT_EQ(got.counters.swaps_applied, 0) << label;
    ExpectSameOutcome(RunReference(ctx_, max_sweeps), got, label);
  }
}

TEST_F(LocalSearchSwapTest, RidersAndDriversWithoutAValidPairAssignNothing) {
  // Riders and drivers on opposite sides of the city, beyond every
  // deadline's reach: the batch has no valid pair, so the dispatchers
  // return before any per-region work, and LS's counters read as its sweep
  // loop leaves them (one sweep over no slot).
  const LatLon south{40.60, -74.02};
  const LatLon north{40.90, -73.78};
  ctx_.AddRider(MakeRider(0, south, north, 2000.0));
  ctx_.AddRider(MakeRider(1, south, south, 600.0));
  ctx_.AddDriver(MakeDriver(0, north));
  ctx_.AddDriver(MakeDriver(1, north));
  FinalizeSnapshots();
  ASSERT_TRUE(ctx_.ValidPairs().empty());

  for (auto make : {MakeIrgDispatcher, MakeShortDispatcher}) {
    std::unique_ptr<Dispatcher> greedy = make();
    std::vector<Assignment> out = {{0, 0}};
    greedy->Dispatch(ctx_, &out);
    EXPECT_TRUE(out.empty()) << greedy->name();
  }
  for (int max_sweeps : {1, 16}) {
    const std::string label = "max_sweeps=" + std::to_string(max_sweeps);
    LsOutcome got = RunDispatcher(ctx_, max_sweeps);
    EXPECT_TRUE(got.assignments.empty()) << label;
    EXPECT_EQ(got.counters.sweeps, 1) << label;
    EXPECT_EQ(got.counters.proposals, 0) << label;
    EXPECT_EQ(got.counters.swaps_applied, 0) << label;
    ExpectSameOutcome(RunReference(ctx_, max_sweeps), got, label);
  }
  // With no sweep allowed, none is counted.
  LsOutcome none = RunDispatcher(ctx_, 0);
  EXPECT_EQ(none.counters.sweeps, 0);
  ExpectSameOutcome(RunReference(ctx_, 0), none, "max_sweeps=0");
}

// -------------------------------------------------- randomized batches

using test::MakeRandomBatch;

TEST(LsSwapPlanTest, CandidateListsMatchTheMatchedPairs) {
  Grid grid = MakeNycGrid16x16();
  StraightLineCostModel cost(7.0, 1.3);
  auto ctx = MakeRandomBatch(grid, cost, 7, 120, 80);
  std::vector<CandidatePair> pairs = GenerateValidPairs(*ctx);
  IrgState state =
      RunGreedySelection(*ctx, pairs, GreedyObjective::kIdleRatio);
  LsSwapPlan plan = BuildLsSwapPlan(*ctx, pairs, state.assignments);

  // CSR candidate totals == pairs owned by matched drivers, in pair order.
  std::vector<int> slot_of_driver(ctx->drivers().size(), -1);
  for (int i = 0; i < plan.num_slots; ++i) {
    slot_of_driver[static_cast<size_t>(
        state.assignments[static_cast<size_t>(i)].driver_index)] = i;
  }
  std::vector<std::vector<const CandidatePair*>> expected(
      static_cast<size_t>(plan.num_slots));
  for (const CandidatePair& cp : pairs) {
    int slot = slot_of_driver[static_cast<size_t>(cp.driver_index)];
    if (slot >= 0) expected[static_cast<size_t>(slot)].push_back(&cp);
  }
  for (int i = 0; i < plan.num_slots; ++i) {
    const auto& exp = expected[static_cast<size_t>(i)];
    ASSERT_EQ(plan.cand_offsets[static_cast<size_t>(i) + 1] -
                  plan.cand_offsets[static_cast<size_t>(i)],
              static_cast<int>(exp.size()));
    bool slot_has_dup_region = false;
    std::vector<RegionId> seen;
    for (size_t c = 0; c < exp.size(); ++c) {
      const auto at =
          static_cast<size_t>(plan.cand_offsets[static_cast<size_t>(i)]) + c;
      const WaitingRider& r =
          ctx->riders()[static_cast<size_t>(exp[c]->rider_index)];
      EXPECT_EQ(plan.cand_rider[at], exp[c]->rider_index);
      EXPECT_EQ(plan.cand_dropoff[at], r.dropoff_region);
      EXPECT_EQ(plan.cand_trip[at], r.trip_seconds);
      for (RegionId s : seen) slot_has_dup_region |= s == r.dropoff_region;
      seen.push_back(r.dropoff_region);
    }
    // A repeated dropoff region within the slot must be flagged for the
    // extra-1 ET table.
    if (slot_has_dup_region) {
      bool flagged = false;
      for (RegionId s : seen) {
        flagged |= plan.needs_minus1[static_cast<size_t>(s)] != 0;
      }
      EXPECT_TRUE(flagged) << "slot " << i;
    }
  }
}

TEST(LocalSearchReferenceTest, MatchesTheReferenceSweep) {
  Grid grid = MakeNycGrid16x16();
  StraightLineCostModel cost(7.0, 1.3);
  for (uint64_t seed : {3u, 20190417u}) {
    // The batch must exercise what the dense tables replace: committed
    // swaps, after which later slots read the two refreshed regions, and
    // slots holding two candidates with one dropoff region (the
    // ET(k, extra-1) table).
    auto probe = MakeRandomBatch(grid, cost, seed, 220, 160);
    std::vector<CandidatePair> pairs = GenerateValidPairs(*probe);
    IrgState greedy =
        RunGreedySelection(*probe, pairs, GreedyObjective::kIdleRatio);
    LsSwapPlan plan = BuildLsSwapPlan(*probe, pairs, greedy.assignments);
    int minus1_regions = 0;
    for (char flag : plan.needs_minus1) minus1_regions += flag != 0;
    ASSERT_GT(minus1_regions, 0) << "seed " << seed;

    for (int max_sweeps : {1, 2, 16}) {
      auto ref_ctx = MakeRandomBatch(grid, cost, seed, 220, 160);
      const LsOutcome want = RunReference(*ref_ctx, max_sweeps);
      ASSERT_GT(want.counters.swaps_applied, 0) << "seed " << seed;
      const std::string label = "seed " + std::to_string(seed) +
                                ", max_sweeps=" + std::to_string(max_sweeps);
      auto ctx = MakeRandomBatch(grid, cost, seed, 220, 160);
      ExpectSameOutcome(want, RunDispatcher(*ctx, max_sweeps), label);
    }
  }
}

}  // namespace
}  // namespace mrvd
