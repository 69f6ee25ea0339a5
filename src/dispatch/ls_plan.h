// Candidate layout of one local-search dispatch (Algorithm 3).
//
// A sweep visits every matched driver ("slot") in assignment order and
// scans the slot's candidate riders in the canonical pair order; that order
// decides which of two equal-scoring swaps wins. The candidate lists do not
// change across sweeps, so BuildLsSwapPlan lays them out once per Dispatch:
//
//   * CSR candidate arrays — rider index, dropoff region and trip seconds
//     per candidate — so the sweep's scoring loop reads three dense arrays
//     instead of chasing CandidatePair pointers into WaitingRider records;
//   * the distinct candidate dropoff regions, the only regions whose ET
//     the sweep reads;
//   * which regions also need the "current rider released" ET(k, extra-1)
//     value (only queried when a slot holds two candidates with the same
//     dropoff region k).
#pragma once

#include <vector>

#include "sim/batch.h"

namespace mrvd {

/// Precomputed sweep layout for one LS dispatch; see file comment.
struct LsSwapPlan {
  int num_slots = 0;

  /// Candidate swaps per slot (CSR over [cand_offsets[i], cand_offsets[i+1])),
  /// in the canonical pair order the sweep scans.
  std::vector<int> cand_offsets;
  std::vector<int> cand_rider;         ///< context rider index
  std::vector<RegionId> cand_dropoff;  ///< rider dropoff region
  std::vector<double> cand_trip;       ///< rider trip seconds (score input)

  /// All distinct candidate dropoff regions, ascending.
  std::vector<RegionId> regions;
  /// By region id: some slot holds >= 2 candidates with this dropoff
  /// region, so the sweep also needs ET(k, extra-1).
  std::vector<char> needs_minus1;
};

/// Builds the plan for `assignments` (the greedy result LS refines) over
/// the canonical pair list. Slots index `assignments`; candidate order
/// within a slot is the pair order.
LsSwapPlan BuildLsSwapPlan(const BatchContext& ctx,
                           const std::vector<CandidatePair>& pairs,
                           const std::vector<Assignment>& assignments);

}  // namespace mrvd
