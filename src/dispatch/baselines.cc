// RAND, NEAR, LTG and UPPER baselines (§6.3).
#include <algorithm>
#include <numeric>

#include "dispatch/dispatchers.h"
#include "matching/bipartite.h"
#include "util/rng.h"

namespace mrvd {

namespace {

/// RAND: assigns a uniformly random valid driver to riders in random order.
class RandomDispatcher final : public Dispatcher {
 public:
  explicit RandomDispatcher(uint64_t seed) : rng_(seed) {}

  std::string name() const override { return "RAND"; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    const std::vector<CandidatePair>& pairs = ctx.ValidPairs();
    // The list is rider-major: rider ri's pairs are
    // [begin_[ri], begin_[ri + 1]).
    begin_.assign(ctx.riders().size() + 1, 0);
    for (const CandidatePair& c : pairs) {
      ++begin_[static_cast<size_t>(c.rider_index) + 1];
    }
    std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
    std::vector<int> rider_order(ctx.riders().size());
    std::iota(rider_order.begin(), rider_order.end(), 0);
    rng_.Shuffle(rider_order);

    std::vector<char> driver_used(ctx.drivers().size(), false);
    for (int ri : rider_order) {
      // Reservoir-pick a random unused driver among the candidates.
      int chosen = -1;
      int seen = 0;
      for (size_t c = begin_[static_cast<size_t>(ri)];
           c < begin_[static_cast<size_t>(ri) + 1]; ++c) {
        const int di = pairs[c].driver_index;
        if (driver_used[static_cast<size_t>(di)]) continue;
        ++seen;
        if (rng_.UniformInt(1, seen) == 1) chosen = di;
      }
      if (chosen >= 0) {
        driver_used[static_cast<size_t>(chosen)] = true;
        out->push_back({ri, chosen});
      }
    }
  }

 private:
  Rng rng_;
  std::vector<size_t> begin_;  ///< per-rider offsets into the pair list
};

/// NEAR: greedily matches the globally closest (driver, order) pairs first.
class NearestDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "NEAR"; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    const std::vector<CandidatePair>& pairs = ctx.ValidPairs();
    std::vector<WeightedPair> wp;
    wp.reserve(pairs.size());
    for (const auto& c : pairs) {
      wp.push_back({c.rider_index, c.driver_index, c.pickup_seconds});
    }
    for (size_t idx : GreedyMatch(wp)) {
      out->push_back({wp[idx].left, wp[idx].right});
    }
  }
};

/// LTG: serves the highest-revenue orders first (ties: closer pickup).
class LongTripGreedyDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "LTG"; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    const std::vector<CandidatePair>& pairs = ctx.ValidPairs();
    std::vector<WeightedPair> wp;
    wp.reserve(pairs.size());
    for (const auto& c : pairs) {
      const auto& r = ctx.riders()[static_cast<size_t>(c.rider_index)];
      // Primary: -revenue (descending revenue); secondary: pickup time.
      double score = -r.revenue + c.pickup_seconds * 1e-6;
      wp.push_back({c.rider_index, c.driver_index, score});
    }
    for (size_t idx : GreedyMatch(wp)) {
      out->push_back({wp[idx].left, wp[idx].right});
    }
  }
};

/// UPPER: most-expensive orders onto idle drivers ignoring pickup distance
/// (§6.3). Only meaningful with SimConfig::zero_pickup_travel.
class UpperBoundDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "UPPER"; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    std::vector<int> riders(ctx.riders().size());
    std::iota(riders.begin(), riders.end(), 0);
    std::sort(riders.begin(), riders.end(), [&](int a, int b) {
      return ctx.riders()[static_cast<size_t>(a)].revenue >
             ctx.riders()[static_cast<size_t>(b)].revenue;
    });
    size_t k = std::min(riders.size(), ctx.drivers().size());
    for (size_t i = 0; i < k; ++i) {
      out->push_back({riders[i], static_cast<int>(i)});
    }
  }
};

}  // namespace

std::unique_ptr<Dispatcher> MakeRandomDispatcher(uint64_t seed) {
  return std::make_unique<RandomDispatcher>(seed);
}
std::unique_ptr<Dispatcher> MakeNearestDispatcher() {
  return std::make_unique<NearestDispatcher>();
}
std::unique_ptr<Dispatcher> MakeLongTripGreedyDispatcher() {
  return std::make_unique<LongTripGreedyDispatcher>();
}
std::unique_ptr<Dispatcher> MakeUpperBoundDispatcher() {
  return std::make_unique<UpperBoundDispatcher>();
}

}  // namespace mrvd
