// RunOne: one declarative run over an assembled Simulation — the paper's
// §6 evaluation grid (8 dispatchers × parameter sweeps × workloads) one
// cell at a time, as data.
//
// Callers describe a run as a RunSpec (dispatcher spec string, optional
// SimConfig override, scenario choice, replication seed); RunOne resolves
// it against the DispatcherRegistry (a typo fails with the known roster),
// runs it inline on the calling thread and returns its RunResult. A sweep
// is a loop over RunOne, or a CampaignRunner grid, which schedules RunOne
// on its ThreadPool.
//
// Determinism: each run gets its own dispatcher instance and Simulator, so
// an identical spec gives a bit-identical SimResult on any thread
// (tests/campaign_test.cc checks campaign threads {1, 4} against a serial
// RunOne loop).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/simulation_builder.h"
#include "sim/metrics.h"
#include "util/status.h"

namespace mrvd {

/// One declarative run of a sweep.
struct RunSpec {
  RunSpec() = default;
  RunSpec(std::string dispatcher_spec, std::string run_label = "")
      : dispatcher(std::move(dispatcher_spec)), label(std::move(run_label)) {}

  /// DispatcherRegistry spec, e.g. "IRG" or "LS:max_sweeps=8".
  std::string dispatcher;

  /// Row label in the RunResult table; defaults to the dispatcher spec.
  std::string label;

  /// Per-run engine config; unset inherits the Simulation's config. The
  /// registry's zero-pickup-travel trait (UPPER) is applied on top.
  std::optional<SimConfig> config;

  /// Run under the Simulation's scenario script (if one is attached).
  bool use_scenario = true;

  /// Replication seed: when non-zero and the dispatcher declares a "seed"
  /// parameter (RAND), it overrides the spec's seed — so replications are
  /// `for (s : seeds) { spec.replication_seed = s; RunOne(sim, spec); }`.
  /// Recorded in the RunResult either way.
  uint64_t replication_seed = 0;

  /// Optional per-run observer. Fires on the thread that calls RunOne for
  /// this spec — do not share one observer across concurrently running
  /// specs.
  SimObserver* observer = nullptr;
};

/// Outcome of one RunSpec.
struct RunResult {
  std::string label;
  std::string dispatcher;  ///< resolved display name (Dispatcher::name())
  std::string spec;        ///< the RunSpec's dispatcher spec string
  uint64_t replication_seed = 0;
  double wall_seconds = 0.0;  ///< this run's wall time
  SimResult result;
};

/// Resolves `spec` against the registry and `simulation`'s defaults, then
/// runs it inline on the calling thread. Fails on an unknown dispatcher or
/// bad parameter (naming the known roster or parameters), on a config that
/// does not pass SimConfig::Validate() (InvalidArgument, before any batch
/// runs), and on stream I/O errors.
StatusOr<RunResult> RunOne(const Simulation& simulation, const RunSpec& spec);

}  // namespace mrvd
