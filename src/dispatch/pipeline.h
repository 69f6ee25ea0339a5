// Region-sharded parallel preparation of one dispatch batch.
//
// The batch dispatch hot path is the valid-pair list → greedy selection →
// (for LS) local-search sweeps. The pair list is the context's own
// (BatchContext::ValidPairs), read on the coordinating thread. The
// birth-death idle-time solves behind every score are pure functions of
// the immutable batch snapshot, so they shard cleanly by region. The
// greedy selection itself is a sequential process whose picks couple
// arbitrary shards through the riders' dropoff regions, so it is not
// split:
//
//   1. Parallel phase (per shard, on the BatchExecution's pool): each
//      worker solves ET(k, 0) (BatchContext::ComputeIdleSeconds) for every
//      dropoff region of the pair list that the shard owns, into a
//      per-shard vector — the value every pair's initial greedy score
//      reads.
//   2. Sequential selection: the values are written into the BatchContext
//      memo table (WarmIdleCache) and the ordinary serial greedy runs over
//      the full pair list.
//
// The result equals the serial path's bit for bit: the pair list is the
// same list, the lazy-PQ comparator is a strict total order, and warming a
// memo table with values of the same pure function cannot change any score.
#pragma once

#include <vector>

#include "sim/batch.h"

namespace mrvd {

/// Output of the parallel preparation phase.
struct PreparedBatch {
  /// The context's ValidPairs(), not copied. On the parallel path the
  /// BatchContext's ET memo table then holds ET(k, 0) for every dropoff
  /// region among them.
  const std::vector<CandidatePair>& pairs;
  /// Per-shard batch sizes and parallel-phase wall times (empty on the
  /// serial fallback). Dispatchers move this into their DispatchCounters so
  /// shard imbalance reaches SimResult.
  std::vector<ShardLoadStat> shard_stats;
};

/// Runs the sharded ET warm-up when `ctx` carries a parallel
/// BatchExecution; otherwise only reads the pair list.
PreparedBatch PrepareShardedBatch(const BatchContext& ctx);

}  // namespace mrvd
