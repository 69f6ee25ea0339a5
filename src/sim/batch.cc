#include "sim/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "geo/region_partitioner.h"
#include "util/thread_pool.h"

namespace mrvd {

bool BatchExecution::Parallel() const {
  return pool != nullptr && pool->num_threads() > 1 && partitioner != nullptr &&
         partitioner->num_shards() > 1;
}

BatchContext::BatchContext(double now, double window_seconds,
                           const RenegingGrowthTable& growth, const Grid& grid,
                           const TravelCostModel& cost_model,
                           CandidateMode candidate_mode)
    : now_(now),
      window_seconds_(window_seconds),
      growth_(growth),
      grid_(grid),
      cost_model_(cost_model),
      candidate_mode_(candidate_mode),
      drivers_by_region_(static_cast<size_t>(grid.num_regions())),
      snapshots_(static_cast<size_t>(grid.num_regions())),
      idle_memo_(static_cast<size_t>(grid.num_regions())),
      latest_join_(static_cast<size_t>(grid.num_regions())) {}

BatchContext::BatchContext(double now, double window_seconds,
                           double reneging_beta, const Grid& grid,
                           const TravelCostModel& cost_model,
                           CandidateMode candidate_mode)
    : now_(now),
      window_seconds_(window_seconds),
      owned_growth_(
          std::make_unique<const RenegingGrowthTable>(reneging_beta)),
      growth_(*owned_growth_),
      grid_(grid),
      cost_model_(cost_model),
      candidate_mode_(candidate_mode),
      drivers_by_region_(static_cast<size_t>(grid.num_regions())),
      snapshots_(static_cast<size_t>(grid.num_regions())),
      idle_memo_(static_cast<size_t>(grid.num_regions())),
      latest_join_(static_cast<size_t>(grid.num_regions())) {}

void BatchContext::Reset(double now) {
  now_ = now;
  riders_.clear();
  drivers_.clear();
  for (auto& bucket : drivers_by_region_) bucket.clear();
  shard_index_.partitioner = nullptr;
  pairs_current_ = false;
  searched_this_batch_ = false;
  BumpMemoEpoch();
}

CellSpan BatchContext::SearchRider(int ri,
                                   std::vector<CandidatePair>* out) const {
  const WaitingRider& r = riders_[static_cast<size_t>(ri)];
  const double budget_seconds = r.pickup_deadline - now_;
  if (budget_seconds < 0.0) return CellSpan{0, -1, 0, -1};

  // now + tt <= deadline is evaluated in doubles; 1 µs of slack covers its
  // rounding for clock values below 2^32 s. A speed that bounds nothing
  // (<= 0 or NaN) gives an unbounded box.
  const double speed = cost_model_.SpeedMps();
  const double reach_m = speed > 0.0
                             ? (budget_seconds + 1e-6) * speed
                             : std::numeric_limits<double>::infinity();
  const BoundingBox box = EquirectangularReachBox(r.pickup, reach_m);
  const int row = grid_.RowOf(r.pickup_region);
  const int col = grid_.ColOf(r.pickup_region);
  const CellSpan span = candidate_mode_ == CandidateMode::kRegionLocal
                            ? CellSpan{row, row, col, col}
                            : grid_.SpanOf(box);
  const int max_ring = std::max({row - span.row_lo, span.row_hi - row,
                                 col - span.col_lo, span.col_hi - col});

  // Drivers are bucketed by RegionOf their location, as the engine keeps
  // them, so the rings clipped to the span hold every driver in the box.
  auto visit = [&](RegionId reg) {
    for (int di : drivers_by_region_[static_cast<size_t>(reg)]) {
      const AvailableDriver& d = drivers_[static_cast<size_t>(di)];
      if (!box.Contains(d.location)) continue;
      const double tt = PickupSeconds(d, r);
      if (now_ + tt <= r.pickup_deadline) out->push_back({ri, di, tt});
    }
  };
  for (int g = 0; g <= max_ring; ++g) {
    grid_.ForEachRingCell(r.pickup_region, g, span, visit);
  }
  return span;
}

const std::vector<CandidatePair>& BatchContext::ValidPairs() const {
  if (!pairs_current_) ComputeValidPairs();
  return pairs_;
}

bool BatchContext::StillPairless(const RiderSearch& memo,
                                 const WaitingRider& r) const {
  auto same = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  if (!memo.found_nothing || memo.pickup_region != r.pickup_region ||
      !same(memo.pickup.lat, r.pickup.lat) ||
      !same(memo.pickup.lon, r.pickup.lon) ||
      !same(memo.pickup_deadline, r.pickup_deadline)) {
    return false;
  }
  const CellSpan& walked = memo.walked;
  for (int row = walked.row_lo; row <= walked.row_hi; ++row) {
    for (int col = walked.col_lo; col <= walked.col_hi; ++col) {
      const double joined =
          latest_join_[static_cast<size_t>(grid_.RegionAt(row, col))];
      if (!(joined < memo.now)) return false;
    }
  }
  return true;
}

void BatchContext::ComputeValidPairs() const {
  pairs_.clear();
  // A search at a later clock had a smaller reach box than this batch's.
  if (now_ < search_memo_now_) search_memo_.clear();
  if (!search_memo_.empty()) {
    // One pass here costs less than keeping the maximum in AddDriver.
    std::fill(latest_join_.begin(), latest_join_.end(),
              -std::numeric_limits<double>::infinity());
    for (const AvailableDriver& d : drivers_) {
      double& latest = latest_join_[static_cast<size_t>(d.region)];
      latest = std::max(latest, d.available_since);
    }
  }
  next_memo_.clear();
  // Waiting riders keep arrival order and new ones are appended, so one
  // forward walk over the memo finds every rider that is still waiting.
  size_t cursor = 0;
  for (int ri = 0; ri < static_cast<int>(riders_.size()); ++ri) {
    const WaitingRider& r = riders_[static_cast<size_t>(ri)];
    const RiderSearch* memo = nullptr;
    for (size_t m = cursor; m < search_memo_.size(); ++m) {
      if (search_memo_[m].order_id == r.order_id) {
        memo = &search_memo_[m];
        cursor = m + 1;
        break;
      }
    }
    if (memo != nullptr && StillPairless(*memo, r)) {
      next_memo_.push_back(*memo);  // keeps the search's now and cells
      ++skipped_searches_;
      continue;
    }
    const size_t before = pairs_.size();
    RiderSearch& entry = next_memo_.emplace_back();
    entry.order_id = r.order_id;
    entry.pickup = r.pickup;
    entry.pickup_region = r.pickup_region;
    entry.pickup_deadline = r.pickup_deadline;
    entry.walked = SearchRider(ri, &pairs_);
    entry.found_nothing = pairs_.size() == before;
    entry.now = now_;
  }
  search_memo_.swap(next_memo_);
  search_memo_now_ = now_;
  pairs_current_ = true;
  searched_this_batch_ = true;
#ifndef NDEBUG
  // The memoised list must equal the from-scratch search bit for bit.
  std::vector<CandidatePair> scratch;
  for (int ri = 0; ri < static_cast<int>(riders_.size()); ++ri) {
    SearchRider(ri, &scratch);
  }
  assert(scratch.size() == pairs_.size());
  for (size_t i = 0; i < scratch.size(); ++i) {
    assert(scratch[i].rider_index == pairs_[i].rider_index);
    assert(scratch[i].driver_index == pairs_[i].driver_index);
    assert(std::bit_cast<uint64_t>(scratch[i].pickup_seconds) ==
           std::bit_cast<uint64_t>(pairs_[i].pickup_seconds));
  }
#endif
}

void BatchContext::SetSnapshots(std::vector<RegionSnapshot> snapshots) {
  assert(static_cast<int>(snapshots.size()) == grid_.num_regions());
  snapshots_ = std::move(snapshots);
  BumpMemoEpoch();
}

const BatchContext::ShardIndex* BatchContext::EnsureShardIndex() const {
  if (execution_ == nullptr || execution_->partitioner == nullptr) {
    return nullptr;
  }
  const RegionPartitioner* parts = execution_->partitioner;
  if (shard_index_.partitioner == parts) return &shard_index_;
  assert(parts->num_regions() == grid_.num_regions());
  const size_t num_shards = static_cast<size_t>(parts->num_shards());
  shard_index_.partitioner = parts;
  shard_index_.riders.assign(num_shards, {});
  shard_index_.drivers.assign(num_shards, {});
  for (int i = 0; i < static_cast<int>(riders_.size()); ++i) {
    int s = parts->shard_of(riders_[static_cast<size_t>(i)].pickup_region);
    shard_index_.riders[static_cast<size_t>(s)].push_back(i);
  }
  for (int j = 0; j < static_cast<int>(drivers_.size()); ++j) {
    int s = parts->shard_of(drivers_[static_cast<size_t>(j)].region);
    shard_index_.drivers[static_cast<size_t>(s)].push_back(j);
  }
  return &shard_index_;
}

BatchContext::RegionQueue BatchContext::QueueFor(RegionId region,
                                                  int extra_drivers) const {
  RegionSnapshot snap = snapshots_[static_cast<size_t>(region)];
  if (candidate_mode_ == CandidateMode::kRingExpand) {
    // Under cross-region matching a driver rejoining region k competes in
    // (and is served from) the 3x3 service neighbourhood, so the queue that
    // determines his idle time aggregates those regions' demand and supply.
    // Under strict per-region matching (Algorithm 2) the region's own
    // snapshot is the exact queue. The walk adds the neighbours in
    // Grid::Ring's order; the floating-point sums depend on it.
    const CellSpan whole_grid{0, grid_.rows() - 1, 0, grid_.cols() - 1};
    grid_.ForEachRingCell(region, 1, whole_grid, [&](RegionId nb) {
      const RegionSnapshot& s = snapshots_[static_cast<size_t>(nb)];
      snap.waiting_riders += s.waiting_riders;
      snap.available_drivers += s.available_drivers;
      snap.predicted_riders += s.predicted_riders;
      snap.predicted_drivers += s.predicted_drivers;
    });
  }
  RegionQueue queue;
  // K truncates the predicted rejoiners before adding the tentative ones.
  queue.max_drivers = std::max<int64_t>(
      snap.available_drivers + static_cast<int64_t>(snap.predicted_drivers) +
          extra_drivers,
      1);
  snap.predicted_drivers += static_cast<double>(extra_drivers);
  queue.rates = EstimateRegionRates(snap, window_seconds_);
  return queue;
}

double BatchContext::ComputeIdleSeconds(RegionId region,
                                        int extra_drivers) const {
  const RegionQueue queue = QueueFor(region, extra_drivers);
  // Solve the chain in per-minute units: the reneging practice
  // π(n) = e^{βn}/μ from [25] is calibrated for arrival rates on the order
  // of "customers per minute" (§4.1 states rates in number per minute);
  // feeding per-second rates would make 1/μ a huge reneging rate.
  double et_minutes = EstimateIdleTimeSeconds(
      queue.rates.lambda * 60.0, queue.rates.mu * 60.0, queue.max_drivers,
      growth_, /*max_idle_seconds=*/60.0);  // cap: 60 min
  return et_minutes * 60.0;
}

BatchContext::IdleMemoEntry& BatchContext::MemoEntry(
    RegionId region, int extra_drivers) const {
  assert(extra_drivers >= 0);
  std::vector<IdleMemoEntry>& row = idle_memo_[static_cast<size_t>(region)];
  const size_t extra = static_cast<size_t>(extra_drivers);
  if (extra >= row.size()) row.resize(extra + 1);
  return row[extra];
}

void BatchContext::BumpMemoEpoch() {
  if (++memo_epoch_ != 0) return;
  // The stamp wrapped: clear every entry so none from 2^32 epochs ago
  // reads as current.
  for (auto& row : idle_memo_) {
    for (IdleMemoEntry& entry : row) entry.epoch = 0;
  }
  memo_epoch_ = 1;
}

double BatchContext::ExpectedIdleSeconds(RegionId region,
                                         int extra_drivers) const {
  IdleMemoEntry& entry = MemoEntry(region, extra_drivers);
  if (entry.epoch != memo_epoch_) {
    entry = {ComputeIdleSeconds(region, extra_drivers), memo_epoch_};
  }
  return entry.seconds;
}

void BatchContext::WarmIdleCache(RegionId region, int extra_drivers,
                                 double et) const {
  IdleMemoEntry& entry = MemoEntry(region, extra_drivers);
  if (entry.epoch != memo_epoch_) entry = {et, memo_epoch_};
}

}  // namespace mrvd
