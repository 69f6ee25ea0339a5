#include "dispatch/ls_plan.h"

namespace mrvd {

LsSwapPlan BuildLsSwapPlan(const BatchContext& ctx,
                           const std::vector<CandidatePair>& pairs,
                           const std::vector<Assignment>& assignments) {
  LsSwapPlan plan;
  plan.num_slots = static_cast<int>(assignments.size());
  const int num_regions = ctx.grid().num_regions();
  plan.needs_minus1.assign(static_cast<size_t>(num_regions), 0);
  plan.cand_offsets.assign(static_cast<size_t>(plan.num_slots) + 1, 0);
  if (plan.num_slots == 0) return plan;

  // driver context index -> slot (assignment index); -1 for unmatched.
  std::vector<int> driver_slot(ctx.drivers().size(), -1);
  for (int i = 0; i < plan.num_slots; ++i) {
    driver_slot[static_cast<size_t>(
        assignments[static_cast<size_t>(i)].driver_index)] = i;
  }

  // CSR counts, then a stable fill — candidate order within a slot is the
  // pair order.
  for (const CandidatePair& cp : pairs) {
    int slot = driver_slot[static_cast<size_t>(cp.driver_index)];
    if (slot >= 0) ++plan.cand_offsets[static_cast<size_t>(slot) + 1];
  }
  for (int i = 0; i < plan.num_slots; ++i) {
    plan.cand_offsets[static_cast<size_t>(i) + 1] +=
        plan.cand_offsets[static_cast<size_t>(i)];
  }
  const int total = plan.cand_offsets[static_cast<size_t>(plan.num_slots)];
  plan.cand_rider.resize(static_cast<size_t>(total));
  plan.cand_dropoff.resize(static_cast<size_t>(total));
  plan.cand_trip.resize(static_cast<size_t>(total));
  std::vector<int> cursor(plan.cand_offsets.begin(),
                          plan.cand_offsets.end() - 1);
  for (const CandidatePair& cp : pairs) {
    int slot = driver_slot[static_cast<size_t>(cp.driver_index)];
    if (slot < 0) continue;
    const WaitingRider& r = ctx.riders()[static_cast<size_t>(cp.rider_index)];
    const auto at = static_cast<size_t>(cursor[static_cast<size_t>(slot)]++);
    plan.cand_rider[at] = cp.rider_index;
    plan.cand_dropoff[at] = r.dropoff_region;
    plan.cand_trip[at] = r.trip_seconds;
  }

  // The global region list and the extra-minus-one flags (a repeated
  // dropoff region within one slot means the "released current rider"
  // adjustment can fire there).
  std::vector<int> last_seen(static_cast<size_t>(num_regions), -1);
  for (int i = 0; i < plan.num_slots; ++i) {
    for (int c = plan.cand_offsets[static_cast<size_t>(i)];
         c < plan.cand_offsets[static_cast<size_t>(i) + 1]; ++c) {
      const auto k = static_cast<size_t>(plan.cand_dropoff[static_cast<size_t>(c)]);
      if (last_seen[k] == i) plan.needs_minus1[k] = 1;
      last_seen[k] = i;
    }
  }
  for (RegionId k = 0; k < static_cast<RegionId>(num_regions); ++k) {
    if (last_seen[static_cast<size_t>(k)] >= 0) plan.regions.push_back(k);
  }
  return plan;
}

}  // namespace mrvd
