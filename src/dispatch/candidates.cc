#include "dispatch/candidates.h"

#include <algorithm>
#include <limits>

#include "geo/region_partitioner.h"
#include "util/thread_pool.h"

namespace mrvd {

namespace {

/// Emits rider `ri`'s valid pairs in the canonical order: rings outward
/// around the pickup region, regions in Grid::Ring order, drivers in bucket
/// order. Only regions that the rider's reach box touches are visited and
/// only drivers inside the box are priced: by the speed contract of
/// TravelCostModel::SpeedMps a driver outside the box cannot make the
/// deadline, so the pairs are exactly the Def.-3-valid ones (drivers are
/// bucketed by RegionOf their location, as the engine maintains). Every
/// generation path (serial or sharded) goes through this function with the
/// same per-rider order, so the concatenated pair list is identical no
/// matter how the riders were distributed over workers.
template <typename Sink>
void ForRiderValidPairs(const BatchContext& ctx, int ri, Sink&& sink) {
  const Grid& grid = ctx.grid();
  const WaitingRider& r = ctx.riders()[static_cast<size_t>(ri)];
  const double budget_seconds = r.pickup_deadline - ctx.now();
  if (budget_seconds < 0.0) return;

  // now + tt <= deadline is evaluated in doubles; 1 µs of slack covers its
  // rounding for clock values below 2^32 s. A speed that bounds nothing
  // (<= 0 or NaN) gives an unbounded box.
  const double speed = ctx.cost_model().SpeedMps();
  const double reach_m = speed > 0.0
                             ? (budget_seconds + 1e-6) * speed
                             : std::numeric_limits<double>::infinity();
  const BoundingBox box = EquirectangularReachBox(r.pickup, reach_m);
  const int row = grid.RowOf(r.pickup_region);
  const int col = grid.ColOf(r.pickup_region);
  const CellSpan span =
      ctx.candidate_mode() == CandidateMode::kRegionLocal
          ? CellSpan{row, row, col, col}
          : grid.SpanOf(box);
  const int max_ring = std::max({row - span.row_lo, span.row_hi - row,
                                 col - span.col_lo, span.col_hi - col});

  auto visit = [&](RegionId reg) {
    for (int di : ctx.drivers_by_region()[static_cast<size_t>(reg)]) {
      const AvailableDriver& d = ctx.drivers()[static_cast<size_t>(di)];
      if (!box.Contains(d.location)) continue;
      double tt = ctx.PickupSeconds(d, r);
      if (ctx.now() + tt <= r.pickup_deadline) {
        sink(ri, di, tt);
      }
    }
  };
  for (int g = 0; g <= max_ring; ++g) {
    grid.ForEachRingCell(r.pickup_region, g, span, visit);
  }
}

/// Fills `out` (pre-sized to riders().size()) with each rider's pairs.
/// When the context carries a parallel execution, riders are generated
/// per-shard across the pool; each worker writes only its shard's rider
/// slots, so no synchronisation is needed and the per-rider contents are
/// exactly the serial ones.
void GeneratePerRider(const BatchContext& ctx,
                      std::vector<std::vector<CandidatePair>>* out) {
  const BatchExecution* exec = ctx.execution();
  if (exec != nullptr && exec->Parallel() && ctx.riders().size() > 1) {
    const RegionPartitioner& parts = *exec->partitioner;
    // Shared one-pass shard index (built once per batch and reused by the
    // pipeline's shard stats; must be ensured before fanning out).
    const BatchContext::ShardIndex& index = *ctx.EnsureShardIndex();
    exec->pool->ParallelFor(parts.num_shards(), [&](int s) {
      for (int ri : index.riders[static_cast<size_t>(s)]) {
        auto& dst = (*out)[static_cast<size_t>(ri)];
        ForRiderValidPairs(ctx, ri, [&dst](int rr, int di, double tt) {
          dst.push_back({rr, di, tt});
        });
      }
    });
    return;
  }
  for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
    auto& dst = (*out)[static_cast<size_t>(ri)];
    ForRiderValidPairs(ctx, ri, [&dst](int rr, int di, double tt) {
      dst.push_back({rr, di, tt});
    });
  }
}

}  // namespace

std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx) {
  const BatchExecution* exec = ctx.execution();
  if (exec == nullptr || !exec->Parallel() || ctx.riders().size() <= 1) {
    // Serial: sink straight into the flat list, no per-rider buffers.
    std::vector<CandidatePair> out;
    for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
      ForRiderValidPairs(ctx, ri, [&out](int rr, int di, double tt) {
        out.push_back({rr, di, tt});
      });
    }
    return out;
  }
  std::vector<std::vector<CandidatePair>> per_rider(ctx.riders().size());
  GeneratePerRider(ctx, &per_rider);
  size_t total = 0;
  for (const auto& g : per_rider) total += g.size();
  std::vector<CandidatePair> out;
  out.reserve(total);
  for (const auto& g : per_rider) {
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

std::vector<std::vector<CandidatePair>> GenerateValidPairsPerRider(
    const BatchContext& ctx) {
  std::vector<std::vector<CandidatePair>> out(ctx.riders().size());
  GeneratePerRider(ctx, &out);
  return out;
}

}  // namespace mrvd
