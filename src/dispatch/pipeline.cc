#include "dispatch/pipeline.h"

#include "geo/region_partitioner.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mrvd {

PreparedBatch PrepareShardedBatch(const BatchContext& ctx) {
  PreparedBatch out{ctx.ValidPairs(), {}};
  const BatchExecution* exec = ctx.execution();
  if (exec == nullptr || !exec->Parallel()) return out;
  const RegionPartitioner& parts = *exec->partitioner;
  const int num_shards = parts.num_shards();

  // One-pass shard index for the shard stats (built here only if the
  // engine's BatchBuilder did not already build it).
  const BatchContext::ShardIndex* index = ctx.EnsureShardIndex();
  out.shard_stats.assign(static_cast<size_t>(num_shards), {});
  for (int s = 0; s < num_shards; ++s) {
    out.shard_stats[static_cast<size_t>(s)].riders =
        static_cast<int64_t>(index->riders[static_cast<size_t>(s)].size());
    out.shard_stats[static_cast<size_t>(s)].drivers =
        static_cast<int64_t>(index->drivers[static_cast<size_t>(s)].size());
  }

  // The distinct dropoff regions, routed to their owning shard so ET(k, 0)
  // is solved exactly once.
  std::vector<std::vector<RegionId>> dests_by_shard(
      static_cast<size_t>(num_shards));
  std::vector<char> dest_seen(static_cast<size_t>(ctx.grid().num_regions()),
                              0);
  for (const CandidatePair& cp : out.pairs) {
    RegionId dest =
        ctx.riders()[static_cast<size_t>(cp.rider_index)].dropoff_region;
    if (!dest_seen[static_cast<size_t>(dest)]) {
      dest_seen[static_cast<size_t>(dest)] = 1;
      dests_by_shard[static_cast<size_t>(parts.shard_of(dest))].push_back(
          dest);
    }
  }

  // Parallel warm: per shard, solve ET(k, 0) for the owned dropoff regions
  // into a vector aligned with the shard's dests_by_shard list.
  std::vector<std::vector<double>> ets(static_cast<size_t>(num_shards));
  exec->pool->ParallelFor(num_shards, [&](int s) {
    // Each ParallelFor task is exactly one shard, so the watch reads the
    // shard's parallel-phase wall time; shard_stats writes are disjoint.
    // The span lands in the executing worker's trace buffer, so Perfetto
    // shows the shard work on the thread that actually ran it.
    telemetry::TraceSpan shard_span(ctx.telemetry(), "shard_prepare");
    Stopwatch shard_watch;
    const std::vector<RegionId>& dests = dests_by_shard[static_cast<size_t>(s)];
    std::vector<double>& et = ets[static_cast<size_t>(s)];
    et.reserve(dests.size());
    for (RegionId dest : dests) et.push_back(ctx.ComputeIdleSeconds(dest, 0));
    out.shard_stats[static_cast<size_t>(s)].seconds =
        shard_watch.ElapsedSeconds();
  });

  // Serial warm of the shared memo table (each dropoff region is solved by
  // exactly one shard; every value is the pure ComputeIdleSeconds of the
  // batch's snapshot).
  for (int s = 0; s < num_shards; ++s) {
    const std::vector<RegionId>& dests = dests_by_shard[static_cast<size_t>(s)];
    for (size_t i = 0; i < dests.size(); ++i) {
      ctx.WarmIdleCache(dests[i], 0, ets[static_cast<size_t>(s)][i]);
    }
  }
  return out;
}

}  // namespace mrvd
