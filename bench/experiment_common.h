// Shared helpers for the table/figure reproduction benches.
//
// Every paper bench runs its day through the `paper` workload-catalog entry
// (src/campaign/workload_catalog.cc). Scale and seed come from environment
// variables so the default run finishes quickly:
//   MRVD_SCALE    fraction of the paper's workload (default 0.1)
//   MRVD_FULL=1   full paper scale (282,255 orders, 1K-8K drivers)
//   MRVD_SEED     master seed (default 20190417)
// A value the `paper` entry rejects stops the bench with the catalog's
// message and a non-zero exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "campaign/artifact_store.h"
#include "campaign/campaign_spec.h"
#include "util/status.h"

namespace mrvd::bench {

/// Resolved experiment scale.
struct ExperimentScale {
  double scale = 0.1;
  uint64_t seed = 20190417;

  /// The `paper` catalog spec at this scale and seed, plus `params`
  /// ("drivers=1000,tau=60"; empty = the entry's defaults).
  std::string Paper(const std::string& params = "") const;
};

/// Reads the MRVD_* environment variables; fails with the `paper` entry's
/// message when it cannot use a value.
StatusOr<ExperimentScale> ResolveScale();

/// Prints `status` to stderr and exits non-zero.
[[noreturn]] inline void Die(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

/// The value of `result`, or Die().
template <typename T>
T OrDie(StatusOr<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

/// A bench campaign's artifacts as grid[dispatcher][column]. The column is
/// the workload's position times the number of config deltas plus the
/// delta's position — for a sweep along one of the two axes, that axis.
using CellGrid = std::vector<std::vector<RunArtifact>>;

/// Runs `spec` with CampaignRunner::Resume from bench_artifacts/<name>,
/// prints the executed/resumed line and returns the grid. Cells run one at
/// a time, since the (b) tables time each batch, and RAND draws from the
/// paper benches' seed (MRVD_SEED ^ 0xABCD). Fails if any cell failed.
StatusOr<CellGrid> RunBenchCampaign(const ExperimentScale& scale,
                                    CampaignSpec spec);

/// Markdown-ish table printing.
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);

/// Formats a revenue at full precision (%.17g, round-trips the double), so
/// a diff of two runs' output shows any change in it.
std::string FormatRevenue(double revenue);

/// One table row: `label` over the sweep's columns.
struct SweepRow {
  std::string label;
  const std::vector<RunArtifact>* cells;
};

/// Prints a figure's "(a): total revenue vs <axis>" and "(b): mean batch
/// running time (ms) vs <axis>" tables.
void PrintRevenueAndBatchTime(const std::string& figure,
                              const std::string& axis,
                              const std::vector<std::string>& columns,
                              const std::vector<SweepRow>& rows);

}  // namespace mrvd::bench
