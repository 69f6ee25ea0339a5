#include "sim/batch_builder.h"

#include <algorithm>
#include <cassert>

#include "geo/region_partitioner.h"
#include "util/thread_pool.h"

namespace mrvd {

namespace {

/// Below this many entities a chunked ParallelFor costs more than it saves;
/// the serial fill produces the identical arrays either way.
constexpr int kParallelGrain = 256;

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

/// Splits [0, n) into `chunks` near-equal ranges; returns chunk c's bounds.
std::pair<int, int> ChunkRange(int n, int chunks, int c) {
  int base = n / chunks, rem = n % chunks;
  int begin = c * base + std::min(c, rem);
  return {begin, begin + base + (c < rem ? 1 : 0)};
}

/// Concatenates per-chunk shard partials in chunk order, giving the same
/// ascending index lists a serial one-pass build would produce.
void ConcatPartials(std::vector<std::vector<std::vector<int>>>& partials,
                    std::vector<std::vector<int>>* out) {
  const size_t num_shards = out->size();
  for (size_t s = 0; s < num_shards; ++s) {
    size_t total = 0;
    for (const auto& chunk : partials) total += chunk[s].size();
    auto& dst = (*out)[s];
    dst.reserve(total);
    for (const auto& chunk : partials) {
      dst.insert(dst.end(), chunk[s].begin(), chunk[s].end());
    }
  }
}

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
      execution_(execution) {}

std::unique_ptr<BatchContext> BatchBuilder::Build(
    double now, const OrderBook& orders, const FleetState& fleet,
    const std::vector<double>* demand_multipliers) const {
  auto ctx = std::make_unique<BatchContext>(now, window_seconds_, growth_,
                                            grid_, cost_model_,
                                            candidate_mode_);
  const bool sharded = execution_ != nullptr && execution_->Parallel();
  if (execution_ != nullptr) ctx->SetExecution(execution_);

  BatchContext::ShardIndex index;
  BatchContext::ShardIndex* index_out = nullptr;
  if (sharded) {
    assert(execution_->partitioner->num_regions() == grid_.num_regions());
    index.partitioner = execution_->partitioner;
    const size_t num_shards =
        static_cast<size_t>(execution_->partitioner->num_shards());
    index.riders.assign(num_shards, {});
    index.drivers.assign(num_shards, {});
    index_out = &index;
  }

  MaterialiseRiders(ctx.get(), orders, index_out);
  MaterialiseDrivers(ctx.get(), fleet, index_out);
  BuildSnapshots(ctx.get(), now, orders, fleet, demand_multipliers);
  if (index_out != nullptr) ctx->SetShardIndex(std::move(index));
  return ctx;
}

void BatchBuilder::MaterialiseRiders(BatchContext* ctx,
                                     const OrderBook& orders,
                                     BatchContext::ShardIndex* index) const {
  const std::deque<PendingRider>& waiting = orders.waiting();
  const int w = static_cast<int>(waiting.size());
  std::vector<WaitingRider> riders(static_cast<size_t>(w));

  const bool parallel = index != nullptr && w >= kParallelGrain;
  if (!parallel) {
    for (int i = 0; i < w; ++i) {
      riders[static_cast<size_t>(i)] = Materialise(waiting[static_cast<size_t>(i)]);
      if (index != nullptr) {
        int s = index->partitioner->shard_of(
            waiting[static_cast<size_t>(i)].pickup_region);
        index->riders[static_cast<size_t>(s)].push_back(i);
      }
    }
    ctx->SetRiders(std::move(riders));
    return;
  }

  // One parallel pass: each chunk fills its disjoint rider slots and
  // collects (chunk, shard) index partials — no shared writes.
  const RegionPartitioner& parts = *index->partitioner;
  const int chunks = std::min(execution_->pool->num_threads(), w);
  std::vector<std::vector<std::vector<int>>> partials(
      static_cast<size_t>(chunks),
      std::vector<std::vector<int>>(
          static_cast<size_t>(parts.num_shards())));
  execution_->pool->ParallelFor(chunks, [&](int c) {
    auto [begin, end] = ChunkRange(w, chunks, c);
    auto& local = partials[static_cast<size_t>(c)];
    for (int i = begin; i < end; ++i) {
      const PendingRider& pr = waiting[static_cast<size_t>(i)];
      riders[static_cast<size_t>(i)] = Materialise(pr);
      local[static_cast<size_t>(parts.shard_of(pr.pickup_region))].push_back(
          i);
    }
  });
  ConcatPartials(partials, &index->riders);
  ctx->SetRiders(std::move(riders));
}

void BatchBuilder::MaterialiseDrivers(BatchContext* ctx,
                                      const FleetState& fleet,
                                      BatchContext::ShardIndex* index) const {
  const std::vector<DriverState>& all = fleet.drivers();
  const int n = static_cast<int>(all.size());
  std::vector<AvailableDriver> drivers;

  auto materialise = [](int j, const DriverState& d) {
    AvailableDriver ad;
    ad.driver_id = static_cast<DriverId>(j);
    ad.location = d.location;
    ad.region = d.region;
    ad.available_since = d.available_since;
    return ad;
  };

  const bool parallel = index != nullptr && n >= kParallelGrain;
  if (!parallel) {
    drivers.reserve(static_cast<size_t>(fleet.available_count()));
    for (int j = 0; j < n; ++j) {
      const DriverState& d = all[static_cast<size_t>(j)];
      if (!d.Dispatchable()) continue;
      if (index != nullptr) {
        index->drivers[static_cast<size_t>(index->partitioner->shard_of(
                           d.region))]
            .push_back(static_cast<int>(drivers.size()));
      }
      drivers.push_back(materialise(j, d));
    }
    ctx->SetDrivers(std::move(drivers));
    return;
  }

  // Two parallel passes over disjoint chunks: count the available drivers
  // per chunk, prefix-sum into per-chunk slot offsets, then fill the slots
  // and collect (chunk, shard) index partials.
  const RegionPartitioner& parts = *index->partitioner;
  const int chunks = std::min(execution_->pool->num_threads(), n);
  std::vector<int> counts(static_cast<size_t>(chunks), 0);
  execution_->pool->ParallelFor(chunks, [&](int c) {
    auto [begin, end] = ChunkRange(n, chunks, c);
    int available = 0;
    for (int j = begin; j < end; ++j) {
      if (all[static_cast<size_t>(j)].Dispatchable()) ++available;
    }
    counts[static_cast<size_t>(c)] = available;
  });
  std::vector<int> offsets(static_cast<size_t>(chunks) + 1, 0);
  for (int c = 0; c < chunks; ++c) {
    offsets[static_cast<size_t>(c) + 1] =
        offsets[static_cast<size_t>(c)] + counts[static_cast<size_t>(c)];
  }
  drivers.resize(static_cast<size_t>(offsets[static_cast<size_t>(chunks)]));
  std::vector<std::vector<std::vector<int>>> partials(
      static_cast<size_t>(chunks),
      std::vector<std::vector<int>>(
          static_cast<size_t>(parts.num_shards())));
  execution_->pool->ParallelFor(chunks, [&](int c) {
    auto [begin, end] = ChunkRange(n, chunks, c);
    int slot = offsets[static_cast<size_t>(c)];
    auto& local = partials[static_cast<size_t>(c)];
    for (int j = begin; j < end; ++j) {
      const DriverState& d = all[static_cast<size_t>(j)];
      if (!d.Dispatchable()) continue;
      drivers[static_cast<size_t>(slot)] = materialise(j, d);
      local[static_cast<size_t>(parts.shard_of(d.region))].push_back(slot);
      ++slot;
    }
  });
  ConcatPartials(partials, &index->drivers);
  ctx->SetDrivers(std::move(drivers));
}

void BatchBuilder::BuildSnapshots(
    BatchContext* ctx, double now, const OrderBook& orders,
    const FleetState& fleet,
    const std::vector<double>* demand_multipliers) const {
  const int num_regions = grid_.num_regions();
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(num_regions));
  const std::vector<int64_t>& demand = orders.demand_by_region();
  const std::vector<int64_t>& supply = fleet.available_by_region();
  const std::vector<int32_t>& rejoining = fleet.rejoining_in_window();
  for (int k = 0; k < num_regions; ++k) {
    RegionSnapshot& s = snaps[static_cast<size_t>(k)];
    s.waiting_riders = demand[static_cast<size_t>(k)];
    s.available_drivers = supply[static_cast<size_t>(k)];
    if (forecast_ != nullptr) {
      s.predicted_riders = forecast_->WindowCount(now, window_seconds_, k);
      if (demand_multipliers != nullptr) {
        s.predicted_riders *= (*demand_multipliers)[static_cast<size_t>(k)];
      }
    }
    s.predicted_drivers =
        static_cast<double>(rejoining[static_cast<size_t>(k)]);
  }
  ctx->SetSnapshots(std::move(snaps));
}

}  // namespace mrvd
