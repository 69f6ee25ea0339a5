// Order-book stage of the staged engine: owns the waiting-rider pool and
// the demand-side region counters. Riders are injected as their request
// times pass, renege when their pickup deadline expires, and leave the pool
// when served.
//
// The pool is the std::vector<WaitingRider> that dispatchers read:
// BatchBuilder::Fill lends it to the batch's context instead of copying
// it, so context rider index i is pool index i. As with the context's
// SnapshotSource, the pool must not change from the fill until the batch's
// assignments are applied. Serving therefore uses mark-and-compact:
// MarkServed records the rider's index and leaves it in place, and one
// stable CompactServed pass per batch removes every marked rider, so a
// batch with A assignments costs O(W + A). A batch that served nobody, or
// in which no deadline has passed, skips the pool pass altogether. Every
// pass is stable, so the pool keeps arrival order, which keeps the batch's
// canonical rider order — and therefore every dispatcher's output —
// bit-identical to the monolithic engine.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "sim/batch.h"
#include "sim/observer.h"
#include "workload/order_source.h"
#include "workload/types.h"

namespace mrvd {

class OrderBook {
 public:
  /// `alpha` is the travel-fee rate (revenue = alpha * trip_seconds). All
  /// referenced objects must outlive the book. `source` supplies arrivals
  /// in request-time order (materialised or streamed).
  OrderBook(OrderSource& source, const Grid& grid,
            const TravelCostModel& cost_model, double alpha);

  /// Convenience for materialised workloads: wraps `workload.orders` in an
  /// internally owned MaterializedOrderSource.
  OrderBook(const Workload& workload, const Grid& grid,
            const TravelCostModel& cost_model, double alpha);

  /// Injects every order with request_time <= now (orders are sorted),
  /// with its trip cost, revenue and regions computed once.
  void InjectArrivals(double now);

  /// Removes riders whose pickup deadline passed, notifying `observer`
  /// (may be null) per renege in pool order. Returns at once when no
  /// deadline in the pool is before `now`; a NaN deadline never passes.
  void RemoveExpired(double now, SimObserver* observer);

  /// Scenario cancellation, explicitly distinct from deadline reneging:
  /// removes every waiting rider whose order id is in `order_ids` in one
  /// stable pass, notifying `observer` (may be null) per cancel in pool
  /// order via OnRiderCancelled. Ids that match no waiting rider (already
  /// served, already reneged, or not yet injected) are silently skipped.
  /// Returns the number of riders actually cancelled.
  int64_t CancelRiders(const std::vector<OrderId>& order_ids, double now,
                       SimObserver* observer);

  /// Marks the rider at `waiting_index` as served and updates the demand
  /// counter; the rider stays in place until CompactServed().
  void MarkServed(int waiting_index);

  /// Removes all served riders in one stable pass; call once per batch
  /// after the assignments are applied. Returns at once when none was
  /// marked.
  void CompactServed();

  /// Waiting riders in arrival order, served ones included until
  /// CompactServed. A batch context filled from this book reads this very
  /// vector, so Assignment::rider_index addresses it directly.
  const std::vector<WaitingRider>& waiting() const { return waiting_; }

  /// |R_k|: unserved in-deadline riders per pickup region.
  const std::vector<int64_t>& demand_by_region() const {
    return demand_by_region_;
  }

  /// True once every order of the source has been injected. (A failed
  /// stream keeps remaining() > 0, so the engine's early-exit never
  /// mistakes an I/O error for a completed day.)
  bool Exhausted() const { return source_->remaining() == 0; }

  /// Orders that will never be dispatched if the run stops now: the
  /// still-waiting pool plus orders whose request time was never reached.
  int64_t UnservedRemainder() const {
    return static_cast<int64_t>(waiting_.size()) + source_->remaining();
  }

 private:
  std::unique_ptr<MaterializedOrderSource> owned_source_;  ///< may be null
  OrderSource* source_;
  const Grid& grid_;
  const TravelCostModel& cost_model_;
  const double alpha_;

  std::vector<WaitingRider> waiting_;
  /// Pool indices marked by MarkServed since the last CompactServed.
  std::vector<int> served_;
  /// At most the earliest non-NaN deadline in the pool (+inf when there is
  /// none): lowered at injection, recomputed by each RemoveExpired pass.
  double earliest_deadline_ = std::numeric_limits<double>::infinity();
  std::vector<int64_t> demand_by_region_;
};

}  // namespace mrvd
