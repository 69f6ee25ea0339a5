// ExperimentRunner: declarative sweep execution over one assembled
// Simulation — the paper's §6 evaluation grid (8 dispatchers × parameter
// sweeps × workloads) as data.
//
// Callers describe each run as a RunSpec (dispatcher spec string, optional
// SimConfig override, scenario choice, replication seed); the runner
// resolves every spec against the DispatcherRegistry up front (so a typo
// fails with the known roster before anything runs), then executes the runs
// concurrently on the existing ThreadPool and returns one RunResult per
// spec, in spec order.
//
// Determinism: runs are fully independent (each gets its own dispatcher
// instance and Simulator), so identical specs + seeds produce bit-identical
// SimResult aggregates at any runner thread count — the equivalence-suite
// guarantee extended to the sweep layer (tests/api_test.cc enforces it).
//
// Nested parallelism note: engine-level sharding (SimConfig::num_threads)
// inside a runner worker degrades to inline execution (ThreadPool nests
// inline rather than deadlock), which never changes results — but for
// throughput pick ONE level: runner threads for many small runs, engine
// threads for few big ones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

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
  /// `for (s : seeds) specs.push_back({"RAND", label, ..., s})`. Recorded
  /// in the RunResult either way.
  uint64_t replication_seed = 0;

  /// Optional per-run observer. Fires on the runner worker executing this
  /// spec — do not share one observer across specs when the runner is
  /// multi-threaded.
  SimObserver* observer = nullptr;
};

/// Outcome of one RunSpec.
struct RunResult {
  std::string label;
  std::string dispatcher;  ///< resolved display name (Dispatcher::name())
  std::string spec;        ///< the RunSpec's dispatcher spec string
  uint64_t replication_seed = 0;
  double wall_seconds = 0.0;  ///< this run's wall time on its worker
  SimResult result;
};

/// Executes RunSpec batches against one Simulation.
class ExperimentRunner {
 public:
  /// `num_threads` concurrent runs (0 = hardware concurrency, 1 = serial).
  explicit ExperimentRunner(Simulation simulation, int num_threads = 1);

  const Simulation& simulation() const { return simulation_; }

  /// Resolves and validates every spec (unknown dispatchers / bad params /
  /// invalid configs fail before any run starts), then executes all runs
  /// and returns results in spec order.
  StatusOr<std::vector<RunResult>> RunAll(
      const std::vector<RunSpec>& specs) const;

  /// Resolves and executes one spec inline on the calling thread — the
  /// exact single-run path RunAll's workers take, exposed so higher layers
  /// (CampaignRunner) that schedule their own parallelism produce
  /// bit-identical RunResults to a RunAll over the same specs.
  static StatusOr<RunResult> RunOne(const Simulation& simulation,
                                    const RunSpec& spec);

 private:
  Simulation simulation_;
  int num_threads_;
};

}  // namespace mrvd
