#include "dispatch/pipeline.h"

#include <unordered_map>

#include "geo/region_partitioner.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mrvd {

PreparedBatch PrepareShardedBatch(const BatchContext& ctx) {
  PreparedBatch out;
  const BatchExecution* exec = ctx.execution();
  if (exec == nullptr || !exec->Parallel()) {
    out.pairs = GenerateValidPairs(ctx);
    return out;
  }
  const RegionPartitioner& parts = *exec->partitioner;
  const int num_shards = parts.num_shards();

  // One-pass shard index, shared by candidate generation and every
  // ShardedBatchContext below (built here only if the engine's
  // BatchBuilder did not already install it).
  const BatchContext::ShardIndex* index = ctx.EnsureShardIndex();
  out.shard_stats.assign(static_cast<size_t>(num_shards), {});
  for (int s = 0; s < num_shards; ++s) {
    out.shard_stats[static_cast<size_t>(s)].riders =
        static_cast<int64_t>(index->riders[static_cast<size_t>(s)].size());
    out.shard_stats[static_cast<size_t>(s)].drivers =
        static_cast<int64_t>(index->drivers[static_cast<size_t>(s)].size());
  }

  // Parallel per-shard candidate generation (sharded inside candidates.cc).
  auto per_rider = GenerateValidPairsPerRider(ctx);

  // Flatten in the canonical rider-major order; the distinct dropoff
  // regions are routed to their owning shard so ET(k, 0) is solved exactly
  // once.
  size_t total = 0;
  for (const auto& g : per_rider) total += g.size();
  out.pairs.reserve(total);
  std::vector<std::vector<RegionId>> dests_by_shard(
      static_cast<size_t>(num_shards));
  std::vector<char> dest_seen(static_cast<size_t>(ctx.grid().num_regions()),
                              0);
  for (const auto& g : per_rider) {
    for (const CandidatePair& cp : g) {
      out.pairs.push_back(cp);
      RegionId dest =
          ctx.riders()[static_cast<size_t>(cp.rider_index)].dropoff_region;
      if (!dest_seen[static_cast<size_t>(dest)]) {
        dest_seen[static_cast<size_t>(dest)] = 1;
        dests_by_shard[static_cast<size_t>(parts.shard_of(dest))].push_back(
            dest);
      }
    }
  }

  // Parallel warm: per shard, solve ET(k, 0) for the owned dropoff regions
  // into a shard-local memo table.
  std::vector<std::unordered_map<int64_t, double>> caches(
      static_cast<size_t>(num_shards));
  exec->pool->ParallelFor(num_shards, [&](int s) {
    // Each ParallelFor task is exactly one shard, so the watch reads the
    // shard's parallel-phase wall time; shard_stats writes are disjoint.
    // The span lands in the executing worker's trace buffer, so Perfetto
    // shows the shard work on the thread that actually ran it.
    telemetry::TraceSpan shard_span(ctx.telemetry(), "shard_prepare");
    Stopwatch shard_watch;
    ShardedBatchContext sctx(ctx, parts, s);
    for (RegionId dest : dests_by_shard[static_cast<size_t>(s)]) {
      sctx.ExpectedIdleSeconds(dest, 0);
    }
    caches[static_cast<size_t>(s)] = sctx.ReleaseIdleCache();
    out.shard_stats[static_cast<size_t>(s)].seconds =
        shard_watch.ElapsedSeconds();
  });

  // Sequential merge into the shared memo table (first write wins; every
  // write is the pure ComputeIdleSeconds of the same snapshot).
  for (auto& cache : caches) {
    ctx.MergeIdleCache(std::move(cache));
  }
  return out;
}

}  // namespace mrvd
