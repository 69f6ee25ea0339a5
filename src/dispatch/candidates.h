// Valid rider-and-driver pair generation (Def. 3), from scratch. The
// dispatchers read BatchContext::ValidPairs(), which gives the same list
// but skips riders that provably still have no driver in reach;
// GenerateValidPairs searches every rider and is the oracle it is checked
// against.
#pragma once

#include <vector>

#include "sim/batch.h"

namespace mrvd {

/// All valid pairs of the batch in the canonical order, BatchContext::
/// SearchRider over every rider. O(sum over riders of drivers in the cells
/// the rider's reach box touches); the box shrinks as deadlines tighten.
std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx);

}  // namespace mrvd
