#include "sim/order_book.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace mrvd {

namespace {

/// The order record observers receive, rebuilt from the pool entry.
Order OrderOf(const WaitingRider& r) {
  Order o;
  o.id = r.order_id;
  o.request_time = r.request_time;
  o.pickup = r.pickup;
  o.dropoff = r.dropoff;
  o.pickup_deadline = r.pickup_deadline;
  return o;
}

}  // namespace

OrderBook::OrderBook(OrderSource& source, const Grid& grid,
                     const TravelCostModel& cost_model, double alpha)
    : source_(&source), grid_(grid), cost_model_(cost_model), alpha_(alpha) {
  demand_by_region_.assign(static_cast<size_t>(grid.num_regions()), 0);
}

OrderBook::OrderBook(const Workload& workload, const Grid& grid,
                     const TravelCostModel& cost_model, double alpha)
    : owned_source_(std::make_unique<MaterializedOrderSource>(workload.orders)),
      source_(owned_source_.get()),
      grid_(grid),
      cost_model_(cost_model),
      alpha_(alpha) {
  demand_by_region_.assign(static_cast<size_t>(grid.num_regions()), 0);
}

void OrderBook::InjectArrivals(double now) {
  while (const Order* o = source_->Peek()) {
    if (o->request_time > now) break;
    WaitingRider& r = waiting_.emplace_back();
    r.order_id = o->id;
    r.pickup = o->pickup;
    r.dropoff = o->dropoff;
    r.request_time = o->request_time;
    r.pickup_deadline = o->pickup_deadline;
    r.trip_seconds = cost_model_.TravelSeconds(o->pickup, o->dropoff);
    r.revenue = alpha_ * r.trip_seconds;
    r.pickup_region = grid_.RegionOf(o->pickup);
    r.dropoff_region = grid_.RegionOf(o->dropoff);
    ++demand_by_region_[static_cast<size_t>(r.pickup_region)];
    // A NaN deadline compares false, so it never lowers the bound.
    if (r.pickup_deadline < earliest_deadline_) {
      earliest_deadline_ = r.pickup_deadline;
    }
    source_->Pop();
  }
}

void OrderBook::RemoveExpired(double now, SimObserver* observer) {
  // No deadline in the pool is before earliest_deadline_.
  if (!(earliest_deadline_ < now)) return;
  CompactServed();  // the pass below moves riders
  double earliest = std::numeric_limits<double>::infinity();
  std::erase_if(waiting_, [&](const WaitingRider& r) {
    if (r.pickup_deadline < now) {
      --demand_by_region_[static_cast<size_t>(r.pickup_region)];
      if (observer != nullptr) observer->OnRiderReneged(now, OrderOf(r));
      return true;
    }
    if (r.pickup_deadline < earliest) earliest = r.pickup_deadline;
    return false;
  });
  earliest_deadline_ = earliest;
}

int64_t OrderBook::CancelRiders(const std::vector<OrderId>& order_ids,
                                double now, SimObserver* observer) {
  if (order_ids.empty()) return 0;
  // Served riders are no longer waiting, and the pass below moves riders.
  CompactServed();
  const std::unordered_set<OrderId> ids(order_ids.begin(), order_ids.end());
  int64_t cancelled = 0;
  std::erase_if(waiting_, [&](const WaitingRider& r) {
    if (!ids.contains(r.order_id)) return false;
    --demand_by_region_[static_cast<size_t>(r.pickup_region)];
    ++cancelled;
    if (observer != nullptr) observer->OnRiderCancelled(now, OrderOf(r));
    return true;
  });
  return cancelled;
}

void OrderBook::MarkServed(int waiting_index) {
  const WaitingRider& r = waiting_[static_cast<size_t>(waiting_index)];
  --demand_by_region_[static_cast<size_t>(r.pickup_region)];
  served_.push_back(waiting_index);
}

void OrderBook::CompactServed() {
  if (served_.empty()) return;
  std::ranges::sort(served_);
  assert(std::ranges::adjacent_find(served_) == served_.end() &&
         "a rider marked served twice");
  // Riders before the first served one stay where they are.
  size_t kept = static_cast<size_t>(served_.front());
  auto next = served_.begin();
  for (size_t i = kept; i < waiting_.size(); ++i) {
    if (next != served_.end() && static_cast<size_t>(*next) == i) {
      ++next;
      continue;
    }
    waiting_[kept++] = waiting_[i];
  }
  waiting_.resize(kept);
  served_.clear();
}

}  // namespace mrvd
