// Figure 7: total revenue (a) and mean batch running time (b) as the fleet
// grows from 1K to 5K drivers. Expected shape: revenue rises with n for
// every approach; IRG/LS lead at small n; the gap narrows toward UPPER as
// the fleet saturates demand.
//
// The fleet axis is the `paper` entry's drivers parameter (DeepST forecast:
// the prediction-guided dispatchers read it, the others ignore it), the
// approach roster is the dispatcher axis, and CampaignRunner::Resume makes
// the sweep content-addressed — kill the bench mid-run and the rerun
// re-executes only the missing cells.
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Figure 7 (scale=%.2f)\n", scale.scale);

  const std::vector<int> fleet = {1000, 2000, 3000, 4000, 5000};
  CampaignSpec spec;
  spec.name = "fig7_vary_n";
  for (int n : fleet) {
    spec.workloads.push_back(scale.Paper(StrFormat("drivers=%d", n)));
  }
  spec.dispatchers = {"RAND", "LTG", "NEAR", "POLAR", "IRG", "LS", "UPPER"};
  const CellGrid grid = OrDie(RunBenchCampaign(scale, spec));

  std::vector<SweepRow> rows;
  for (size_t d = 0; d < spec.dispatchers.size(); ++d) {
    rows.push_back({spec.dispatchers[d], &grid[d]});
  }
  PrintRevenueAndBatchTime("Figure 7", "n", {"1K", "2K", "3K", "4K", "5K"},
                           rows);

  PrintTableHeader("LS as share of UPPER (paper: 78.1% at 1K -> 92.0% at 5K)",
                   {"n", "share"});
  const std::vector<RunArtifact>& ls = grid[5];
  const std::vector<RunArtifact>& upper = grid[6];
  for (size_t w = 0; w < fleet.size(); ++w) {
    double denom = upper[w].revenue;
    PrintTableRow({StrFormat("%dK", fleet[w] / 1000),
                   denom > 0.0
                       ? StrFormat("%.1f%%", 100.0 * ls[w].revenue / denom)
                       : "n/a"});
  }
  return 0;
}
