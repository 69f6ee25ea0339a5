// Figure 9: effect of the scheduling-window length t_c (5..100 minutes) on
// total revenue and batch running time. Expected shape: IRG/LS peak for
// t_c <= 20 min and decay for larger windows (rejoin forecasts beyond the
// typical trip length stop being informative); RAND/LTG are flat in t_c.
//
// t_c is a config delta over the default `paper` day (DeepST forecast).
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Figure 9 (scale=%.2f)\n", scale.scale);

  CampaignSpec spec;
  spec.name = "fig9_vary_tc";
  spec.workloads = {scale.Paper()};
  spec.dispatchers = {"RAND", "LTG", "NEAR", "POLAR", "IRG", "LS"};
  std::vector<std::string> columns;
  for (double tc : {5, 10, 15, 20, 40, 60, 80, 100}) {
    spec.config_deltas.push_back(StrFormat("window_seconds=%g", tc * 60.0));
    columns.push_back(StrFormat("%.0fm", tc));
  }
  const CellGrid grid = OrDie(RunBenchCampaign(scale, spec));

  const std::vector<std::string> labels = {"RAND",  "LTG",   "NEAR",
                                           "POLAR", "IRG-P", "LS-P"};
  std::vector<SweepRow> rows;
  for (size_t d = 0; d < labels.size(); ++d) {
    rows.push_back({labels[d], &grid[d]});
  }
  PrintRevenueAndBatchTime("Figure 9", "t_c", columns, rows);
  return 0;
}
