#include "sim/batch_builder.h"

#include <cassert>

namespace mrvd {

namespace {

#ifndef NDEBUG
/// The kept dispatchable set must give exactly the drivers a full fleet
/// scan finds, in the same ascending order, and every region bucket must
/// hold its region's available count.
void CheckDriversMatchFleetScan(const BatchContext& ctx,
                                const FleetState& fleet) {
  size_t next = 0;
  for (int j = 0; j < fleet.size(); ++j) {
    if (!fleet.driver(j).Dispatchable()) continue;
    assert(next < ctx.drivers().size());
    assert(ctx.drivers()[next].driver_id == static_cast<DriverId>(j));
    ++next;
  }
  assert(next == ctx.drivers().size());
  for (size_t k = 0; k < ctx.drivers_by_region().size(); ++k) {
    assert(static_cast<int64_t>(ctx.drivers_by_region()[k].size()) ==
           fleet.available_by_region()[k]);
  }
}
#endif

}  // namespace

BatchBuilder::BatchBuilder(const Grid& grid, const TravelCostModel& cost_model,
                           const DemandForecast* forecast,
                           double window_seconds, double reneging_beta,
                           CandidateMode candidate_mode)
    : grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast),
      window_seconds_(window_seconds),
      growth_(reneging_beta),
      candidate_mode_(candidate_mode) {
  assert(forecast_ == nullptr ||
         forecast_->num_regions() == grid_.num_regions());
}

std::unique_ptr<BatchContext> BatchBuilder::NewContext() const {
  return std::make_unique<BatchContext>(0.0, window_seconds_, growth_, grid_,
                                        cost_model_, candidate_mode_);
}

void BatchBuilder::Fill(double now, const OrderBook& orders,
                        const FleetState& fleet,
                        const std::vector<double>* demand_multipliers,
                        BatchContext* ctx) {
  ctx->Reset(now);
  ctx->LendRiders(orders.waiting());
  fleet.ForEachDispatchable([&](int j) {
    const DriverState& d = fleet.driver(j);
    AvailableDriver ad;
    ad.driver_id = static_cast<DriverId>(j);
    ad.location = d.location;
    ad.region = d.region;
    ad.available_since = d.available_since;
    ctx->AddDriver(ad);
  });
#ifndef NDEBUG
  CheckDriversMatchFleetScan(*ctx, fleet);
#endif
  ctx->SetSnapshotSource({&orders.demand_by_region(),
                          &fleet.available_by_region(),
                          &fleet.rejoining_in_window(), forecast_,
                          demand_multipliers});
}

std::unique_ptr<BatchContext> BatchBuilder::Build(
    double now, const OrderBook& orders, const FleetState& fleet,
    const std::vector<double>* demand_multipliers) {
  std::unique_ptr<BatchContext> ctx = NewContext();
  Fill(now, orders, fleet, demand_multipliers, ctx.get());
  return ctx;
}

}  // namespace mrvd
