#include "sim/batch.h"

#include <algorithm>
#include <cassert>

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
      idle_memo_(static_cast<size_t>(grid.num_regions())) {}

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
      idle_memo_(static_cast<size_t>(grid.num_regions())) {}

void BatchContext::Reset(double now) {
  now_ = now;
  riders_.clear();
  drivers_.clear();
  for (auto& bucket : drivers_by_region_) bucket.clear();
  shard_index_.partitioner = nullptr;
  BumpMemoEpoch();
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
