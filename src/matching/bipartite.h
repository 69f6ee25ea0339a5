// Weighted greedy bipartite matching: the building block of the paper's
// batch dispatchers (sort candidate pairs by priority, pick greedily subject
// to one-rider-one-driver). `WeightedPair` and `GreedyMatch` are all this
// layer holds; no dispatcher solves an exact assignment.
#pragma once

#include <cstddef>
#include <vector>

namespace mrvd {

/// One weighted candidate pair for greedy matching.
struct WeightedPair {
  int left = -1;
  int right = -1;
  double score = 0.0;  ///< smaller is better (e.g. idle ratio)
};

/// Greedily selects pairs in ascending score order, skipping pairs whose
/// endpoint is already matched. Stable for equal scores (original order).
/// Returns selected indices into `pairs`.
std::vector<size_t> GreedyMatch(std::vector<WeightedPair> pairs);

}  // namespace mrvd
