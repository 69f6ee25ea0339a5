// Figure 13 (Appendix C): number of served orders under the
// served-order-maximizing objective — SHORT vs RAND, NEAR, POLAR across the
// four parameter sweeps (n, t_c, Δ, τ). Expected shape: SHORT serves the
// most orders in every sweep.
//
// The workload-shaping axes (n and τ change the generated fleet or orders)
// sweep the `paper` entry's drivers and tau parameters, while the
// engine-only axes (t_c, Δ) sweep as config deltas over the default day
// (DeepST forecast throughout). CampaignRunner::Resume makes every sweep
// content-addressed and resumable: kill the bench mid-run and the rerun
// re-executes only the missing cells.
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

namespace {

const std::vector<std::string> kApproaches = {"RAND", "NEAR", "POLAR",
                                              "SHORT"};

/// Runs one campaign over `workloads` x `deltas` and prints its
/// served-orders table.
void ServedSweep(const ExperimentScale& scale, const std::string& name,
                 std::vector<std::string> workloads,
                 std::vector<std::string> deltas, const std::string& title,
                 std::vector<std::string> header) {
  CampaignSpec spec;
  spec.name = name;
  spec.workloads = std::move(workloads);
  spec.dispatchers = kApproaches;
  spec.config_deltas = std::move(deltas);
  const CellGrid grid = OrDie(RunBenchCampaign(scale, spec));

  header.insert(header.begin(), "approach");
  PrintTableHeader(title, header);
  for (size_t a = 0; a < kApproaches.size(); ++a) {
    std::vector<std::string> row = {kApproaches[a]};
    for (const RunArtifact& cell : grid[a]) {
      row.push_back(StrFormat("%lld", static_cast<long long>(cell.served)));
    }
    PrintTableRow(row);
  }
}

}  // namespace

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Figure 13 (scale=%.2f)\n", scale.scale);

  {  // (a) vary n — workload axis
    std::vector<std::string> workloads;
    for (int n : {1000, 2000, 3000, 4000, 5000}) {
      workloads.push_back(scale.Paper(StrFormat("drivers=%d", n)));
    }
    ServedSweep(scale, "fig13a_vary_n", workloads, {},
                "Figure 13(a): served orders vs n",
                {"1K", "2K", "3K", "4K", "5K"});
  }
  {  // (b) vary t_c — config deltas over the default day
    std::vector<std::string> deltas, header;
    for (double tc : {5.0, 10.0, 20.0, 40.0, 80.0}) {
      deltas.push_back(StrFormat("window_seconds=%g", tc * 60.0));
      header.push_back(StrFormat("%.0fm", tc));
    }
    ServedSweep(scale, "fig13b_vary_tc", {scale.Paper()}, deltas,
                "Figure 13(b): served orders vs t_c", header);
  }
  {  // (c) vary Δ — config deltas over the same day
    std::vector<std::string> deltas, header;
    for (double delta : {3.0, 5.0, 10.0, 20.0, 30.0}) {
      deltas.push_back(StrFormat("batch_interval=%g", delta));
      header.push_back(StrFormat("%.0fs", delta));
    }
    ServedSweep(scale, "fig13c_vary_delta", {scale.Paper()}, deltas,
                "Figure 13(c): served orders vs Δ", header);
  }
  {  // (d) vary τ — workload axis (deadlines are part of the orders)
    std::vector<std::string> workloads, header;
    for (double tau : {60.0, 120.0, 180.0, 240.0, 300.0}) {
      workloads.push_back(scale.Paper(StrFormat("tau=%g", tau)));
      header.push_back(StrFormat("%.0fs", tau));
    }
    ServedSweep(scale, "fig13d_vary_tau", workloads, {},
                "Figure 13(d): served orders vs τ", header);
  }
  return 0;
}
