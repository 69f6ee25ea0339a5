#include "sim/batch_builder.h"

#include <cassert>

namespace mrvd {

namespace {

WaitingRider Materialise(const PendingRider& pr) {
  WaitingRider wr;
  wr.order_id = pr.order.id;
  wr.pickup = pr.order.pickup;
  wr.dropoff = pr.order.dropoff;
  wr.request_time = pr.order.request_time;
  wr.pickup_deadline = pr.order.pickup_deadline;
  wr.revenue = pr.revenue;
  wr.trip_seconds = pr.trip_seconds;
  wr.pickup_region = pr.pickup_region;
  wr.dropoff_region = pr.dropoff_region;
  return wr;
}

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
                           CandidateMode candidate_mode,
                           const BatchExecution* execution)
    : grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast),
      window_seconds_(window_seconds),
      growth_(reneging_beta),
      candidate_mode_(candidate_mode),
      execution_(execution) {
  assert(forecast_ == nullptr ||
         forecast_->num_regions() == grid_.num_regions());
}

std::unique_ptr<BatchContext> BatchBuilder::NewContext() const {
  auto ctx = std::make_unique<BatchContext>(0.0, window_seconds_, growth_,
                                            grid_, cost_model_,
                                            candidate_mode_);
  if (execution_ != nullptr) ctx->SetExecution(execution_);
  return ctx;
}

void BatchBuilder::Fill(double now, const OrderBook& orders,
                        const FleetState& fleet,
                        const std::vector<double>* demand_multipliers,
                        BatchContext* ctx) {
  ctx->Reset(now);
  for (const PendingRider& pr : orders.waiting()) {
    ctx->AddRider(Materialise(pr));
  }
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
  FillSnapshots(now, orders, fleet, demand_multipliers, ctx);
  if (execution_ != nullptr && execution_->Parallel()) {
    ctx->EnsureShardIndex();
  }
}

std::unique_ptr<BatchContext> BatchBuilder::Build(
    double now, const OrderBook& orders, const FleetState& fleet,
    const std::vector<double>* demand_multipliers) {
  std::unique_ptr<BatchContext> ctx = NewContext();
  Fill(now, orders, fleet, demand_multipliers, ctx.get());
  return ctx;
}

void BatchBuilder::FillSnapshots(
    double now, const OrderBook& orders, const FleetState& fleet,
    const std::vector<double>* demand_multipliers, BatchContext* ctx) {
  if (forecast_ != nullptr) {
    forecast_->WindowCounts(now, window_seconds_, &window_counts_);
  }
  const std::vector<int64_t>& demand = orders.demand_by_region();
  const std::vector<int64_t>& supply = fleet.available_by_region();
  const std::vector<int32_t>& rejoining = fleet.rejoining_in_window();
  for (int k = 0; k < grid_.num_regions(); ++k) {
    const size_t i = static_cast<size_t>(k);
    RegionSnapshot& s = ctx->mutable_snapshot(k);
    s.waiting_riders = demand[i];
    s.available_drivers = supply[i];
    s.predicted_riders = 0.0;
    if (forecast_ != nullptr) {
      s.predicted_riders = window_counts_[i];
      if (demand_multipliers != nullptr) {
        s.predicted_riders *= (*demand_multipliers)[i];
      }
    }
    s.predicted_drivers = static_cast<double>(rejoining[i]);
  }
}

}  // namespace mrvd
