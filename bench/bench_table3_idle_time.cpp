// Table 3: accuracy of the queueing-theoretic idle-time estimate (MAE,
// relative RMSE, real RMSE) as the fleet grows from 1K to 8K drivers, plus
// the Figure-6 per-region comparison of predicted vs. real idle time.
//
// Each row builds its `paper` day in-process: the idle-time samples live in
// the SimResult, which no campaign artifact holds. A run records them only
// when its config sets SimConfig::record_idle_samples (off by default, as
// the capture costs one ET(k, 0) solve per rejoin region per batch), so
// each row runs through RunOne with the day's config and that flag set.
#include <cstdio>
#include <optional>
#include <string>

#include "api/experiment_runner.h"
#include "campaign/workload_catalog.h"
#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Table 3 / Figure 6 (scale=%.2f)\n", scale.scale);

  PrintTableHeader("Table 3: Results of the Estimated Idle Time",
                   {"#Drivers", "MAE (s)", "RMSE (%)", "Real RMSE (s)",
                    "samples"});
  // The default fleet's day and run, drawn again as Figure 6.
  std::optional<Simulation> default_day;
  SimResult default_run;
  for (int paper_n : {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}) {
    Simulation day = OrDie(WorkloadCatalog::Global().Build(
        scale.Paper(StrFormat("drivers=%d", paper_n))));
    RunSpec spec("IRG");
    spec.config = day.config();
    spec.config->record_idle_samples = true;
    SimResult r = OrDie(RunOne(day, spec)).result;
    PrintTableRow({StrFormat("%dK*", paper_n / 1000),
                   StrFormat("%.2f", r.idle_error.Mae()),
                   StrFormat("%.2f", r.idle_error.RelativeRmsePct()),
                   StrFormat("%.2f", r.idle_error.RealRmse()),
                   StrFormat("%lld", (long long)r.idle_error.count())});
    if (paper_n == 3000) {
      default_day = day;
      default_run = std::move(r);
    }
  }
  std::printf("(* fleet sizes scaled by scale^1.5; see the `paper` entry in "
              "src/campaign/workload_catalog.cc)\n");

  // Figure 6: per-region predicted vs. real mean idle time at the default
  // fleet size, rendered as two aligned grids.
  const Grid& grid = default_day->grid();
  std::printf("\n== Figure 6: mean idle time per region (seconds) ==\n");
  std::printf("%-34s | %-34s\n", "(a) predicted", "(b) real");
  for (int row = grid.rows() - 1; row >= 0; --row) {
    std::string pred_line, real_line;
    for (int col = 0; col < grid.cols(); ++col) {
      const auto& reg = default_run.region_idle[static_cast<size_t>(
          grid.RegionAt(row, col))];
      if (reg.count == 0) {
        pred_line += "   . ";
        real_line += "   . ";
      } else {
        pred_line += StrFormat("%4.0f ", reg.MeanPredicted());
        real_line += StrFormat("%4.0f ", reg.MeanReal());
      }
    }
    std::printf("%s | %s\n", pred_line.c_str(), real_line.c_str());
  }
  std::printf("('.' = no driver rejoined that region)\n");
  return 0;
}
