// POLAR baseline [28] (Tong et al., "Flexible online task assignment in
// real-time spatial data", VLDB'17), reimplemented per the paper's
// description (§6.3): an *offline* bipartite matching over the predicted
// per-region supply and demand of the scheduling window produces a
// blueprint of region-to-region quotas; the *online* batches match riders
// to drivers guided by those quotas (blueprint pairs first, nearest pickup
// as tie-break, off-blueprint pairs as fallback). The blueprint is
// recomputed once per scheduling window, not per batch — matching POLAR's
// offline/online split.
#include <algorithm>
#include <cmath>
#include <vector>

#include "dispatch/dispatchers.h"
#include "matching/bipartite.h"

namespace mrvd {

namespace {

class PolarDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "POLAR"; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    const Grid& grid = ctx.grid();
    const int n = grid.num_regions();
    if (static_cast<int>(quota_.size()) != n * n) {
      quota_.assign(static_cast<size_t>(n) * n, 0.0);
      next_rebuild_ = -1.0;
    }
    // Rebuild the offline blueprint at window granularity (capped at 5
    // minutes so late-window state changes are still absorbed).
    if (ctx.now() >= next_rebuild_) {
      RebuildBlueprint(ctx);
      next_rebuild_ =
          ctx.now() + std::min(ctx.window_seconds(), 300.0);
    }

    // ---- Online phase: blueprint-guided greedy matching ----------------
    const std::vector<CandidatePair>& pairs = ctx.ValidPairs();
    std::vector<WeightedPair> wp;
    wp.reserve(pairs.size());
    const double kOffBlueprintPenalty = 1e6;
    for (const auto& c : pairs) {
      const auto& r = ctx.riders()[static_cast<size_t>(c.rider_index)];
      const auto& d = ctx.drivers()[static_cast<size_t>(c.driver_index)];
      bool on_blueprint =
          quota_[static_cast<size_t>(d.region) * n + r.pickup_region] > 0.0;
      double score = c.pickup_seconds +
                     (on_blueprint ? 0.0 : kOffBlueprintPenalty);
      wp.push_back({c.rider_index, c.driver_index, score});
    }
    std::vector<size_t> order(wp.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return wp[a].score < wp[b].score;
    });
    std::vector<char> rider_used(ctx.riders().size(), false);
    std::vector<char> driver_used(ctx.drivers().size(), false);
    for (size_t idx : order) {
      const auto& p = wp[idx];
      if (rider_used[static_cast<size_t>(p.left)] ||
          driver_used[static_cast<size_t>(p.right)])
        continue;
      rider_used[static_cast<size_t>(p.left)] = true;
      driver_used[static_cast<size_t>(p.right)] = true;
      const auto& r = ctx.riders()[static_cast<size_t>(p.left)];
      const auto& d = ctx.drivers()[static_cast<size_t>(p.right)];
      auto& q = quota_[static_cast<size_t>(d.region) * n + r.pickup_region];
      if (q > 0.0) q -= 1.0;
      out->push_back({p.left, p.right});
    }
  }

 private:
  void RebuildBlueprint(const BatchContext& ctx) {
    const Grid& grid = ctx.grid();
    const int n = grid.num_regions();
    if (static_cast<int>(center_dist_.size()) != n * n) {
      center_dist_.resize(static_cast<size_t>(n) * n);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          center_dist_[static_cast<size_t>(i) * n + j] =
              grid.CenterDistanceMeters(i, j);
        }
      }
    }

    // Supply: available drivers now + predicted rejoiners. Demand: waiting
    // riders + predicted arrivals.
    std::vector<double> supply(static_cast<size_t>(n), 0.0);
    std::vector<double> demand(static_cast<size_t>(n), 0.0);
    for (int k = 0; k < n; ++k) {
      const RegionSnapshot& s = ctx.snapshots()[static_cast<size_t>(k)];
      supply[static_cast<size_t>(k)] =
          static_cast<double>(s.available_drivers) + s.predicted_drivers;
      demand[static_cast<size_t>(k)] =
          static_cast<double>(s.waiting_riders) + s.predicted_riders;
    }

    // Mean revenue per origin region from the current waiting riders
    // (global mean as fallback).
    std::vector<double> revenue_sum(static_cast<size_t>(n), 0.0);
    std::vector<int> revenue_cnt(static_cast<size_t>(n), 0);
    double global_sum = 0.0;
    double max_budget = 0.0;
    for (const auto& r : ctx.riders()) {
      revenue_sum[static_cast<size_t>(r.pickup_region)] += r.revenue;
      ++revenue_cnt[static_cast<size_t>(r.pickup_region)];
      global_sum += r.revenue;
      max_budget = std::max(max_budget, r.pickup_deadline - ctx.now());
    }
    double global_mean =
        ctx.riders().empty()
            ? 0.0
            : global_sum / static_cast<double>(ctx.riders().size());
    auto mean_revenue = [&](int j) {
      return revenue_cnt[static_cast<size_t>(j)] > 0
                 ? revenue_sum[static_cast<size_t>(j)] /
                       revenue_cnt[static_cast<size_t>(j)]
                 : global_mean;
    };

    double budget = max_budget > 0.0 ? max_budget : ctx.window_seconds();
    double speed = ctx.cost_model().SpeedMps();

    // Greedy transportation: allocate supply to demand in descending value.
    struct Cell {
      double value;
      int i, j;
    };
    std::vector<Cell> cells;
    for (int i = 0; i < n; ++i) {
      if (supply[static_cast<size_t>(i)] <= 0.0) continue;
      for (int j = 0; j < n; ++j) {
        if (demand[static_cast<size_t>(j)] <= 0.0) continue;
        double reposition = center_dist_[static_cast<size_t>(i) * n + j] / speed;
        if (reposition > budget) continue;
        cells.push_back({mean_revenue(j) - reposition, i, j});
      }
    }
    std::sort(cells.begin(), cells.end(),
              [](const Cell& a, const Cell& b) { return a.value > b.value; });
    std::fill(quota_.begin(), quota_.end(), 0.0);
    std::vector<double> s_left = supply, d_left = demand;
    for (const Cell& c : cells) {
      double q = std::min(s_left[static_cast<size_t>(c.i)],
                          d_left[static_cast<size_t>(c.j)]);
      if (q <= 0.0) continue;
      quota_[static_cast<size_t>(c.i) * n + c.j] += q;
      s_left[static_cast<size_t>(c.i)] -= q;
      d_left[static_cast<size_t>(c.j)] -= q;
    }
  }

  std::vector<double> quota_;
  std::vector<double> center_dist_;
  double next_rebuild_ = -1.0;
};

}  // namespace

std::unique_ptr<Dispatcher> MakePolarDispatcher() {
  return std::make_unique<PolarDispatcher>();
}

}  // namespace mrvd
