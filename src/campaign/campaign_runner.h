// CampaignRunner: executes an expanded campaign grid shard-parallel on the
// existing ThreadPool, with content-addressed resume.
//
// Execution contract:
//   * each workload's Simulation is built ONCE (catalog factories are the
//     expensive part — generator days, CSV parses, forecast derivation) and
//     shared read-only across all grid cells of that workload; scenario
//     scripts attach per (workload, scenario) pair via
//     Simulation::WithScenario;
//   * every cell runs through RunOne (api/experiment_runner.h), the one
//     single-run path, so a campaign's results are bit-identical to a
//     serial RunOne loop over the same cells at any thread count
//     (tests/campaign_test.cc enforces threads {1, 4});
//   * Resume() loads each cell's artifact and re-executes only cells whose
//     artifact is missing or fails to load/validate — killing a campaign
//     mid-flight and resuming produces a manifest byte-identical to a
//     from-scratch run (doubles round-trip exactly through the artifacts).
//
// An aggregation pass follows execution: per (workload, scenario,
// dispatcher, config-delta) group, mean/stddev/95%-CI summaries across the
// seed axis via src/stats.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/experiment_runner.h"
#include "campaign/artifact_store.h"
#include "campaign/campaign_spec.h"
#include "stats/metrics.h"
#include "util/status.h"

namespace mrvd {

struct CampaignOptions {
  /// Concurrent cell executions (0 = hardware concurrency, 1 = serial).
  int num_threads = 1;

  /// Attach a synchronous, tracing-off TelemetrySession to every executed
  /// cell and persist its metrics registry as telemetry-<key>.json next to
  /// the run artifact. Observational only: results, artifacts, and the
  /// manifest are bit-identical with it on or off, and resume never reads
  /// the telemetry documents back.
  bool telemetry = false;
};

/// What happened to one grid cell.
struct CellOutcome {
  enum class Source {
    kExecuted,  ///< ran in this invocation; artifact written, `live` set
    kLoaded,    ///< artifact loaded from the store (resume/summarize)
    kFailed,    ///< run or artifact I/O failed; see `error`
  };

  CampaignCell cell;
  Source source = Source::kFailed;
  RunArtifact artifact;  ///< valid unless kFailed
  std::string error;     ///< non-empty only for kFailed
  /// The full in-memory result for kExecuted cells (equivalence checks,
  /// custom aggregation); never persisted.
  std::optional<RunResult> live;
};

/// Replication statistics for one (workload, scenario, dispatcher,
/// config-delta) group across the seed axis.
struct GroupSummary {
  std::string workload;
  std::string scenario;
  std::string dispatcher;
  std::string config_delta;
  int64_t replications = 0;  ///< ok cells aggregated (failed cells skipped)

  RunningStats revenue;
  RunningStats served;
  RunningStats service_rate;
  RunningStats wait_mean_s;
  RunningStats idle_mean_s;
};

struct CampaignReport {
  std::vector<CellOutcome> cells;       ///< grid order
  std::vector<GroupSummary> summaries;  ///< grid order of the group axes
  int64_t executed = 0;
  int64_t loaded = 0;
  int64_t failed = 0;
  std::string manifest_json;  ///< the manifest document (deterministic)
};

class CampaignRunner {
 public:
  CampaignRunner(CampaignSpec spec, std::string artifact_dir);

  const CampaignSpec& spec() const { return spec_; }
  const ArtifactStore& store() const { return store_; }

  /// Executes every grid cell (existing artifacts are overwritten) and
  /// writes campaign.json + manifest.json.
  StatusOr<CampaignReport> Run(const CampaignOptions& options = {});

  /// Executes only cells without a valid artifact; completed runs are
  /// loaded, not re-run. Writes the same manifest a from-scratch Run()
  /// would, byte for byte (when every cell succeeds).
  StatusOr<CampaignReport> Resume(const CampaignOptions& options = {});

  /// Pure read: loads every artifact, aggregates, and returns the report
  /// without executing anything or writing any file. Cells without a valid
  /// artifact come back kFailed.
  StatusOr<CampaignReport> Summarize() const;

 private:
  enum class Mode { kRun, kResume, kSummarize };
  StatusOr<CampaignReport> Execute(Mode mode,
                                   const CampaignOptions& options) const;

  CampaignSpec spec_;
  ArtifactStore store_;
};

/// The deterministic manifest document: campaign name, canonical axes, one
/// record per cell (key, axes, headline aggregates — no wall-clock), and
/// the per-group summaries. Identical for a fresh run and a resumed one.
std::string ManifestToJson(const CampaignSpec& spec,
                           const std::vector<CellOutcome>& cells,
                           const std::vector<GroupSummary>& summaries);

}  // namespace mrvd
