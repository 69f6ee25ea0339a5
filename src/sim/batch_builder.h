// Batch-construction stage of the staged engine. Assembles the immutable
// BatchContext the dispatchers consume from the OrderBook and FleetState:
//
//   * riders/drivers are *materialised* — copied into the context's dense
//     arrays in the canonical order (riders in arrival order, drivers by
//     ascending id) — shard-parallel on the attached BatchExecution's
//     ThreadPool: each worker fills a disjoint chunk of pre-sized slots
//     and collects per-chunk shard partials, so there are no locks and the
//     concatenated output is bit-identical to the serial fill;
//   * region demand/supply snapshots are read straight off the stages'
//     incremental counters (OrderBook::demand_by_region, FleetState::
//     available_by_region / rejoining_in_window) instead of the former
//     per-batch recount over every rider, driver, and busy schedule;
//   * the per-shard rider/driver index lists (BatchContext::ShardIndex)
//     are produced in the same pass, replacing the former O(S·(R+D))
//     per-shard membership scans of ShardedBatchContext;
//   * the run's reneging-growth table is built once, with the builder, and
//     every context borrows it for its ET solves.
#pragma once

#include <memory>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "queueing/birth_death.h"
#include "sim/batch.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"

namespace mrvd {

class BatchBuilder {
 public:
  /// `forecast` and `execution` may be null (no prediction / serial build).
  /// All referenced objects must outlive the builder. The builder owns the
  /// run's RenegingGrowthTable for `reneging_beta`.
  BatchBuilder(const Grid& grid, const TravelCostModel& cost_model,
               const DemandForecast* forecast, double window_seconds,
               double reneging_beta, CandidateMode candidate_mode,
               const BatchExecution* execution);

  /// Builds the batch at time `now`. Context rider index i is waiting()
  /// index i (every waiting rider is materialised, in order); context
  /// driver entries carry their FleetState index as driver_id. Signed-off
  /// (scenario shift) drivers are never materialised. `demand_multipliers`
  /// (may be null = all 1.0) scales each region's predicted rider demand —
  /// the engine passes the active surge windows' per-region product. The
  /// context borrows the builder's growth table, so it must not outlive
  /// the builder.
  std::unique_ptr<BatchContext> Build(
      double now, const OrderBook& orders, const FleetState& fleet,
      const std::vector<double>* demand_multipliers = nullptr) const;

 private:
  void MaterialiseRiders(BatchContext* ctx, const OrderBook& orders,
                         BatchContext::ShardIndex* index) const;
  void MaterialiseDrivers(BatchContext* ctx, const FleetState& fleet,
                          BatchContext::ShardIndex* index) const;
  void BuildSnapshots(BatchContext* ctx, double now, const OrderBook& orders,
                      const FleetState& fleet,
                      const std::vector<double>* demand_multipliers) const;

  const Grid& grid_;
  const TravelCostModel& cost_model_;
  const DemandForecast* forecast_;
  const double window_seconds_;
  const RenegingGrowthTable growth_;
  const CandidateMode candidate_mode_;
  const BatchExecution* execution_;
};

}  // namespace mrvd
