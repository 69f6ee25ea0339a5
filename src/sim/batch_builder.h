// Batch-construction stage of the staged engine. Refills the run's one
// BatchContext in place each batch, from the state the other stages keep
// up to date:
//
//   * riders are copied from the OrderBook's waiting pool in arrival order;
//   * drivers come from FleetState's dispatchable-driver bitset, walked
//     once in ascending fleet index (the order UPPER's pairing and the
//     tie-breaks and draws of NEAR, LTG, RAND and POLAR read), each also
//     filed into its region bucket — no scan of the whole fleet;
//   * region demand/supply snapshots are overwritten in place from the
//     stages' incremental counters (OrderBook::demand_by_region, FleetState::
//     available_by_region / rejoining_in_window) and one bulk
//     DemandForecast::WindowCounts per batch;
//   * the context's vectors and ET memo rows keep their capacity; an epoch
//     bump invalidates the memo;
//   * the run's reneging-growth table is built once, with the builder, and
//     the context borrows it for its ET solves.
//
// Test builds (no NDEBUG) check every batch that the bitset walk gave
// exactly the drivers a full Dispatchable() scan finds, in the same order,
// and that each region bucket holds its region's available count.
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

  /// An empty context for this builder's run (its grid, cost model, window,
  /// growth table, candidate mode and execution), to be refilled by Fill
  /// every batch. It borrows the builder's growth table, so it must not
  /// outlive the builder.
  std::unique_ptr<BatchContext> NewContext() const;

  /// Refills `ctx` (made by this builder's NewContext) for the batch at
  /// `now`. Context rider index i is waiting() index i (every waiting rider
  /// is materialised, in order); context driver entries carry their
  /// FleetState index as driver_id, in ascending order. Signed-off
  /// (scenario shift) drivers are never materialised. `demand_multipliers`
  /// (may be null = all 1.0) scales each region's predicted rider demand —
  /// the engine passes the active surge windows' per-region product. With
  /// a parallel execution attached the shard index is built as well.
  void Fill(double now, const OrderBook& orders, const FleetState& fleet,
            const std::vector<double>* demand_multipliers, BatchContext* ctx);

  /// NewContext, then Fill: a fresh context for one batch.
  std::unique_ptr<BatchContext> Build(
      double now, const OrderBook& orders, const FleetState& fleet,
      const std::vector<double>* demand_multipliers = nullptr);

 private:
  void FillSnapshots(double now, const OrderBook& orders,
                     const FleetState& fleet,
                     const std::vector<double>* demand_multipliers,
                     BatchContext* ctx);

  const Grid& grid_;
  const TravelCostModel& cost_model_;
  const DemandForecast* forecast_;
  const double window_seconds_;
  const RenegingGrowthTable growth_;
  const CandidateMode candidate_mode_;
  const BatchExecution* execution_;
  std::vector<double> window_counts_;  ///< per-batch forecast, reused
};

}  // namespace mrvd
