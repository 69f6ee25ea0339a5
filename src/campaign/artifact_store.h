// ArtifactStore: a directory of per-run RunResult JSON artifacts addressed
// by campaign cell key, plus the campaign spec and manifest documents —
// what makes campaigns resumable. Killing a campaign mid-flight and
// rerunning is safe: artifacts are written to a temp file and renamed into
// place (a crash never leaves a half-written run-*.json under its final
// name), and LoadRun() validates the stored key, so a stale or corrupted
// artifact reads as "missing" and the cell simply re-executes.
//
// Layout of a campaign directory:
//   campaign.json          the CampaignSpec (written at start; `campaign
//                          resume` re-reads it so a killed run needs no
//                          flags)
//   run-<key>.json         one artifact per completed cell
//                          (content-addressed)
//   telemetry-<key>.json   the cell's metrics registry (only with
//                          CampaignOptions::telemetry; never load-bearing —
//                          resume ignores it)
//   manifest.json          deterministic cell/summary table (written at end)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_runner.h"
#include "campaign/campaign_spec.h"
#include "sim/hourly_stats.h"
#include "util/status.h"

namespace mrvd {

/// The headline numbers persisted per run — everything the manifest,
/// summaries and resume equivalence need. Doubles are written with
/// shortest-round-trip formatting and parsed back bit-exact, so a loaded
/// artifact is indistinguishable from the live run that produced it.
struct RunArtifact {
  std::string dispatcher_name;  ///< resolved display name
  double wall_seconds = 0.0;    ///< never compared or aggregated (varies)

  double revenue = 0.0;
  int64_t served = 0;
  int64_t reneged = 0;
  int64_t cancelled = 0;
  int64_t total_orders = 0;
  int64_t num_batches = 0;
  double service_rate = 0.0;
  double wait_mean_s = 0.0;
  double idle_mean_s = 0.0;
  double dispatch_ms_mean = 0.0;
  double build_ms_mean = 0.0;
  /// Per-batch dispatch latency percentiles (ms). Wall-clock execution
  /// metadata, like wall_seconds: persisted for observability, never
  /// compared or aggregated.
  double dispatch_ms_p50 = 0.0;
  double dispatch_ms_p95 = 0.0;
  double dispatch_ms_p99 = 0.0;
  /// Per-hour event breakdown (deterministic; see sim/hourly_stats.h).
  /// Filled by CampaignRunner from the cell's HourlyBreakdown observer;
  /// empty for artifacts written before the rows existed.
  std::vector<HourlyRow> hourly;
};

/// Projects a RunResult onto the persisted headline numbers.
RunArtifact MakeRunArtifact(const RunResult& result);

class ArtifactStore {
 public:
  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string RunPath(const std::string& key) const;
  std::string TelemetryPath(const std::string& key) const;
  std::string ManifestPath() const;
  std::string SpecPath() const;

  /// Creates the campaign directory (and parents). Idempotent.
  Status Init() const;

  /// Writes the cell's artifact atomically (temp file + rename). Safe to
  /// call concurrently for distinct cells. I/O failures carry errno.
  Status SaveRun(const CampaignCell& cell, const RunArtifact& artifact) const;

  /// Loads and validates the cell's artifact. Any failure — missing file,
  /// parse error, key/axis mismatch (the file belongs to a different run) —
  /// returns a non-OK Status; CampaignRunner treats that as "re-execute".
  StatusOr<RunArtifact> LoadRun(const CampaignCell& cell) const;

  /// Writes the cell's telemetry document (a MetricsRegistry JSON dump)
  /// atomically next to its run artifact.
  Status SaveTelemetry(const CampaignCell& cell,
                       const std::string& json) const;

  /// Persists / restores the campaign spec (campaign.json).
  Status SaveSpec(const CampaignSpec& spec) const;
  StatusOr<CampaignSpec> LoadSpec() const;

  /// Writes `content` to `path` atomically with errno-carrying failures.
  static Status WriteFileAtomic(const std::string& path,
                                const std::string& content);

 private:
  std::string dir_;
};

}  // namespace mrvd
