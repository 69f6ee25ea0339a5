// Figure 10: effect of the base pickup waiting time τ (60..300 s) on total
// revenue and batch running time. Expected shape: revenue rises with τ for
// every approach (patient riders are easier to serve); the ground-truth
// forecast rows (IRG-R/LS-R) sit slightly above their DeepST counterparts;
// IRG/LS above the baselines.
//
// τ is the `paper` entry's tau parameter (deadlines are part of the
// orders), the approach roster is the dispatcher axis, and
// CampaignRunner::Resume makes the sweep content-addressed and resumable.
// The paper's "-R" variants are a second, smaller campaign over the same
// days with predictor=Real.
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Figure 10 (scale=%.2f)\n", scale.scale);

  const std::vector<double> taus = {60, 120, 180, 240, 300};
  std::vector<std::string> columns;
  for (double tau : taus) columns.push_back(StrFormat("%.0fs", tau));
  auto sweep = [&](const std::string& name, const std::string& predictor,
                   std::vector<std::string> dispatchers) {
    CampaignSpec spec;
    spec.name = name;
    for (double tau : taus) {
      spec.workloads.push_back(scale.Paper(
          StrFormat("tau=%g,predictor=%s", tau, predictor.c_str())));
    }
    spec.dispatchers = std::move(dispatchers);
    return OrDie(RunBenchCampaign(scale, spec));
  };
  const std::vector<std::string> roster = {"RAND", "LTG", "NEAR", "POLAR",
                                           "IRG",  "LS",  "UPPER"};
  const CellGrid predicted = sweep("fig10_vary_tau", "DeepST", roster);
  // The "-R" comparison rows: the same grid with the ground-truth
  // forecast, for the dispatchers where the predictor matters most.
  const CellGrid real = sweep("fig10_vary_tau_real", "Real", {"IRG", "LS"});

  std::vector<SweepRow> rows;
  for (size_t d = 0; d < roster.size(); ++d) {
    rows.push_back(
        {roster[d] == "IRG" || roster[d] == "LS" ? roster[d] + "-P" : roster[d],
         &predicted[d]});
  }
  rows.push_back({"IRG-R", &real[0]});
  rows.push_back({"LS-R", &real[1]});
  PrintRevenueAndBatchTime("Figure 10", "τ", columns, rows);
  return 0;
}
