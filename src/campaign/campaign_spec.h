// CampaignSpec: a declarative cross-product of {workloads x scenarios x
// dispatcher specs x seeds x config overrides}, and its expansion into
// deterministic, stably-keyed grid cells.
//
// Every axis entry is a spec string resolved against the matching registry
// (WorkloadCatalog, ScenarioCatalog, DispatcherRegistry) and canonicalised
// before hashing, so a cell's key is a pure function of *what* it runs —
// not of spelling, axis order, or which campaign it appears in. The key is
// what makes the artifact store content-addressed: rerunning a campaign (or
// a different campaign sharing cells) finds the same artifacts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "util/status.h"

namespace mrvd {

/// The declarative grid. Empty optional axes get singleton defaults at
/// expansion: scenarios -> {"none"}, seeds -> {0}, config_deltas -> {""}.
/// Workloads and dispatchers must be non-empty.
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<std::string> workloads;      ///< WorkloadCatalog specs
  std::vector<std::string> scenarios;      ///< ScenarioCatalog specs
  std::vector<std::string> dispatchers;    ///< DispatcherRegistry specs
  std::vector<uint64_t> seeds;             ///< replication seeds (0 = spec default)
  std::vector<std::string> config_deltas;  ///< "key=value,..." SimConfig overrides
};

/// One expanded grid cell: canonical axis values plus the content key.
struct CampaignCell {
  std::string key;  ///< 16 hex chars, FNV-1a over the canonical tuple

  std::string workload;      ///< canonical WorkloadCatalog spec
  std::string scenario;      ///< canonical ScenarioCatalog spec
  std::string dispatcher;    ///< canonical dispatcher spec
  std::string config_delta;  ///< canonical config override ("" = none)
  uint64_t seed = 0;

  /// Position on each axis of the expanding CampaignSpec.
  int workload_index = 0;
  int scenario_index = 0;
  int dispatcher_index = 0;
  int delta_index = 0;
  int seed_index = 0;
};

/// Applies a "key=value,..." override string onto `config`. Known keys,
/// all doubles: batch_interval, window_seconds, horizon_seconds, alpha,
/// reneging_beta. Unknown keys fail listing the known set; the merged
/// config is NOT validated here (the run path calls SimConfig::Validate()).
Status ApplyConfigDelta(const std::string& delta, SimConfig* config);

/// Validates a delta's syntax/keys and returns its canonical form (sorted
/// keys, numerics reformatted). "" canonicalises to "".
StatusOr<std::string> CanonicalizeConfigDelta(const std::string& delta);

/// The content key for one cell: FNV-1a 64 over the canonical
/// (workload, scenario, dispatcher, config_delta, seed) tuple, as 16 hex
/// chars. Inputs must already be canonical.
std::string CampaignCellKey(const std::string& workload,
                            const std::string& scenario,
                            const std::string& dispatcher,
                            const std::string& config_delta, uint64_t seed);

/// Expands the cross-product in deterministic order — workload-major
/// (scenario, dispatcher, delta, seed innermost), so cells sharing a
/// workload are contiguous and CampaignRunner builds each Simulation once.
/// Every axis entry is validated and canonicalised; duplicate entries on an
/// axis (after canonicalisation) fail, since they would collide keys.
StatusOr<std::vector<CampaignCell>> ExpandGrid(const CampaignSpec& spec);

}  // namespace mrvd
