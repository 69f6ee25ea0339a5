// Figure 5: spatial distribution of order pickup locations from 8:00 to
// 8:45 A.M., rendered as a per-cell density map over the 16x16 grid.
#include <algorithm>
#include <cstdio>

#include "campaign/workload_catalog.h"
#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Figure 5 (scale=%.2f)\n", scale.scale);

  // Only the orders are read; the ground-truth forecast is the cheapest.
  const Simulation day = OrDie(
      WorkloadCatalog::Global().Build(scale.Paper("predictor=Real")));
  const Grid& grid = day.grid();

  std::vector<int64_t> counts(static_cast<size_t>(grid.num_regions()), 0);
  int64_t total = 0;
  for (const Order& o : day.workload().orders) {
    if (o.request_time >= 8 * 3600.0 && o.request_time < 8 * 3600.0 + 45 * 60) {
      ++counts[static_cast<size_t>(grid.RegionOf(o.pickup))];
      ++total;
    }
  }

  std::printf("\n== Figure 5: pickups 8:00-8:45 (%lld orders) ==\n",
              (long long)total);
  int64_t peak = 1;
  for (int64_t c : counts) peak = std::max(peak, c);
  const char* shades = " .:-=+*#%@";
  for (int row = grid.rows() - 1; row >= 0; --row) {
    for (int col = 0; col < grid.cols(); ++col) {
      int64_t c = counts[static_cast<size_t>(grid.RegionAt(row, col))];
      int shade = static_cast<int>(9.0 * static_cast<double>(c) /
                                   static_cast<double>(peak));
      std::printf("%c%c", shades[shade], shades[shade]);
    }
    std::printf("\n");
  }
  std::printf("(darker = more pickups; peak cell has %lld)\n",
              (long long)peak);

  // Top-10 cells, as a numeric cross-check.
  std::vector<std::pair<int64_t, RegionId>> ranked;
  for (RegionId r = 0; r < grid.num_regions(); ++r) {
    ranked.push_back({counts[static_cast<size_t>(r)], r});
  }
  std::sort(ranked.rbegin(), ranked.rend());
  PrintTableHeader("Top pickup cells", {"region", "row", "col", "pickups"});
  for (int i = 0; i < 10; ++i) {
    PrintTableRow({StrFormat("%d", ranked[static_cast<size_t>(i)].second),
                   StrFormat("%d", grid.RowOf(ranked[static_cast<size_t>(i)].second)),
                   StrFormat("%d", grid.ColOf(ranked[static_cast<size_t>(i)].second)),
                   StrFormat("%lld",
                             (long long)ranked[static_cast<size_t>(i)].first)});
  }
  return 0;
}
