#include "experiment_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "campaign/campaign_runner.h"
#include "campaign/workload_catalog.h"
#include "util/strings.h"

namespace mrvd::bench {

std::string ExperimentScale::Paper(const std::string& params) const {
  std::string spec = "paper:scale=" + FormatDouble(scale) +
                     ",seed=" + std::to_string(static_cast<int64_t>(seed));
  if (!params.empty()) spec += "," + params;
  return spec;
}

StatusOr<ExperimentScale> ResolveScale() {
  const char* full = std::getenv("MRVD_FULL");
  const char* scale =
      full != nullptr && full[0] == '1' ? "1" : std::getenv("MRVD_SCALE");
  const char* seed = std::getenv("MRVD_SEED");

  // The values go into the spec verbatim, so the catalog's own parsing and
  // range checks judge them.
  std::string params;
  if (scale != nullptr) params = std::string("scale=") + scale;
  if (seed != nullptr) {
    params += (params.empty() ? "seed=" : ",seed=") + std::string(seed);
  }
  StatusOr<std::string> canonical = WorkloadCatalog::Global().Canonicalize(
      params.empty() ? "paper" : "paper:" + params);
  if (!canonical.ok()) return canonical.status();

  ExperimentScale s;
  if (scale != nullptr) {
    StatusOr<double> v = ParseDouble(scale);
    if (!v.ok()) return v.status();  // e.g. "0.1,drivers=5"
    s.scale = *v;
  }
  if (seed != nullptr) {
    StatusOr<int64_t> v = ParseInt64(seed);
    if (!v.ok()) return v.status();
    s.seed = static_cast<uint64_t>(*v);
  }
  return s;
}

StatusOr<CellGrid> RunBenchCampaign(const ExperimentScale& scale,
                                    CampaignSpec spec) {
  // The registry routes a non-zero replication seed into any dispatcher
  // declaring a "seed" parameter: RAND.
  spec.seeds = {scale.seed ^ 0xABCD};
  const std::string dir = "bench_artifacts/" + spec.name;
  CampaignRunner runner(spec, dir);
  CampaignOptions options;
  options.num_threads = 1;
  StatusOr<CampaignReport> report = runner.Resume(options);
  if (!report.ok()) return report.status();
  std::printf("%s: %lld executed, %lld resumed from %s, %lld failed\n",
              spec.name.c_str(), static_cast<long long>(report->executed),
              static_cast<long long>(report->loaded), dir.c_str(),
              static_cast<long long>(report->failed));

  const size_t deltas = std::max<size_t>(1, spec.config_deltas.size());
  CellGrid grid(spec.dispatchers.size(),
                std::vector<RunArtifact>(spec.workloads.size() * deltas));
  for (const CellOutcome& outcome : report->cells) {
    const CampaignCell& cell = outcome.cell;
    if (outcome.source == CellOutcome::Source::kFailed) {
      return Status::Internal("cell " + cell.key + " (" + cell.workload +
                              " x " + cell.dispatcher + ") failed: " +
                              outcome.error);
    }
    grid[static_cast<size_t>(cell.dispatcher_index)]
        [static_cast<size_t>(cell.workload_index) * deltas +
         static_cast<size_t>(cell.delta_index)] = outcome.artifact;
  }
  return grid;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%-14s", i == 0 ? "" : " | ", columns[i].c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s--------------", i == 0 ? "" : "-+-");
  }
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%-14s", i == 0 ? "" : " | ", cells[i].c_str());
  }
  std::printf("\n");
}

std::string FormatRevenue(double revenue) {
  return StrFormat("%.17g", revenue);
}

void PrintRevenueAndBatchTime(const std::string& figure,
                              const std::string& axis,
                              const std::vector<std::string>& columns,
                              const std::vector<SweepRow>& rows) {
  std::vector<std::string> header = {"approach"};
  header.insert(header.end(), columns.begin(), columns.end());
  PrintTableHeader(figure + "(a): total revenue vs " + axis, header);
  for (const SweepRow& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (const RunArtifact& a : *row.cells) {
      cells.push_back(FormatRevenue(a.revenue));
    }
    PrintTableRow(cells);
  }
  PrintTableHeader(figure + "(b): mean batch running time (ms) vs " + axis,
                   header);
  for (const SweepRow& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (const RunArtifact& a : *row.cells) {
      cells.push_back(StrFormat("%.3f", a.dispatch_ms_mean));
    }
    PrintTableRow(cells);
  }
}

}  // namespace mrvd::bench
