#include "matching/bipartite.h"

#include <algorithm>

namespace mrvd {

std::vector<size_t> GreedyMatch(std::vector<WeightedPair> pairs) {
  if (pairs.empty()) return {};
  std::vector<size_t> order(pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pairs[a].score < pairs[b].score;
  });

  int max_left = -1, max_right = -1;
  for (const auto& p : pairs) {
    max_left = std::max(max_left, p.left);
    max_right = std::max(max_right, p.right);
  }
  std::vector<char> left_used(static_cast<size_t>(max_left) + 1, false);
  std::vector<char> right_used(static_cast<size_t>(max_right) + 1, false);

  std::vector<size_t> selected;
  for (size_t idx : order) {
    const auto& p = pairs[idx];
    if (left_used[static_cast<size_t>(p.left)] ||
        right_used[static_cast<size_t>(p.right)])
      continue;
    left_used[static_cast<size_t>(p.left)] = true;
    right_used[static_cast<size_t>(p.right)] = true;
    selected.push_back(idx);
  }
  return selected;
}

}  // namespace mrvd
