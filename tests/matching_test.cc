#include <gtest/gtest.h>

#include <vector>

#include "matching/bipartite.h"

namespace mrvd {
namespace {

TEST(GreedyMatchTest, PicksLowestScoresFirst) {
  std::vector<WeightedPair> pairs = {
      {0, 0, 3.0}, {0, 1, 1.0}, {1, 0, 2.0}, {1, 1, 4.0}};
  auto sel = GreedyMatch(pairs);
  ASSERT_EQ(sel.size(), 2u);
  // (0,1) at 1.0 first, then (1,0) at 2.0.
  EXPECT_EQ(pairs[sel[0]].left, 0);
  EXPECT_EQ(pairs[sel[0]].right, 1);
  EXPECT_EQ(pairs[sel[1]].left, 1);
  EXPECT_EQ(pairs[sel[1]].right, 0);
}

TEST(GreedyMatchTest, EmptyInput) {
  EXPECT_TRUE(GreedyMatch({}).empty());
}

TEST(GreedyMatchTest, RespectsExclusivity) {
  std::vector<WeightedPair> pairs = {
      {0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 5.0}};
  auto sel = GreedyMatch(pairs);
  ASSERT_EQ(sel.size(), 2u);
  std::vector<char> lused(2, false), rused(2, false);
  for (size_t idx : sel) {
    EXPECT_FALSE(lused[static_cast<size_t>(pairs[idx].left)]);
    EXPECT_FALSE(rused[static_cast<size_t>(pairs[idx].right)]);
    lused[static_cast<size_t>(pairs[idx].left)] = true;
    rused[static_cast<size_t>(pairs[idx].right)] = true;
  }
}

TEST(GreedyMatchTest, StableOnTies) {
  std::vector<WeightedPair> pairs = {{0, 0, 1.0}, {1, 1, 1.0}, {0, 1, 1.0}};
  auto sel = GreedyMatch(pairs);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 0u);  // original order preserved among equal scores
  EXPECT_EQ(sel[1], 1u);
}

}  // namespace
}  // namespace mrvd
