#include "api/experiment_runner.h"

#include <memory>
#include <utility>

#include "api/dispatcher_registry.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mrvd {

namespace {

/// A fully resolved run, ready to execute on any worker.
struct ResolvedRun {
  const RunSpec* spec = nullptr;
  std::unique_ptr<Dispatcher> dispatcher;
  SimConfig config;
  const ScenarioScript* scenario = nullptr;  ///< null = unscripted run
};

/// Resolves one spec against the registry and the simulation's defaults
/// (dispatcher construction, config override + zero-pickup trait,
/// replication-seed injection, scenario choice).
StatusOr<ResolvedRun> ResolveRunSpec(const Simulation& simulation,
                                     const RunSpec& spec) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  StatusOr<ParsedSpec> parsed =
      DispatcherRegistry::ParseSpec(spec.dispatcher);
  if (!parsed.ok()) return parsed.status();
  if (spec.replication_seed != 0 && registry.HasParam(parsed->name, "seed")) {
    // Two's-complement int64 formatting keeps the full uint64 seed
    // domain through the int64 spec parameter (as the legacy shim does);
    // the factory's cast back to uint64 restores the exact bit pattern.
    std::string seed_value =
        std::to_string(static_cast<int64_t>(spec.replication_seed));
    bool replaced = false;
    for (auto& [key, value] : parsed->params) {
      if (key == "seed") {
        value = seed_value;
        replaced = true;
      }
    }
    if (!replaced) parsed->params.emplace_back("seed", seed_value);
  }
  StatusOr<std::unique_ptr<Dispatcher>> dispatcher =
      registry.Create(parsed->name, parsed->params);
  if (!dispatcher.ok()) return dispatcher.status();

  ResolvedRun run;
  run.spec = &spec;
  run.config = spec.config.has_value() ? *spec.config : simulation.config();
  if (registry.RequiresZeroPickupTravel(parsed->name)) {
    run.config.zero_pickup_travel = true;
  }
  // RunWith checks the config too, but only when the run starts; checked
  // here, RunAll rejects a bad config before any spec of the sweep runs.
  MRVD_RETURN_NOT_OK(run.config.Validate());
  run.scenario = spec.use_scenario ? simulation.scenario() : nullptr;
  run.dispatcher = std::move(dispatcher).value();
  return run;
}

/// Executes a resolved run inline; runs are independent (own dispatcher,
/// Simulator, and — when streaming — stream reader), so the same
/// ResolvedRun gives the same RunResult on any thread of any pool. Fails
/// only on stream I/O errors (Simulation::RunWith), never on engine work.
StatusOr<RunResult> ExecuteResolved(const Simulation& simulation,
                                    ResolvedRun& run) {
  Stopwatch watch;
  StatusOr<SimResult> sim_result = simulation.RunWith(
      run.config, *run.dispatcher, run.scenario, run.spec->observer);
  if (!sim_result.ok()) return sim_result.status();
  RunResult out;
  out.wall_seconds = watch.ElapsedSeconds();
  out.label = run.spec->label.empty() ? run.spec->dispatcher : run.spec->label;
  out.dispatcher = run.dispatcher->name();
  out.spec = run.spec->dispatcher;
  out.replication_seed = run.spec->replication_seed;
  out.result = std::move(sim_result).value();
  return out;
}

}  // namespace

ExperimentRunner::ExperimentRunner(Simulation simulation, int num_threads)
    : simulation_(std::move(simulation)),
      num_threads_(num_threads == 0 ? ThreadPool::HardwareThreads()
                                    : num_threads) {}

StatusOr<std::vector<RunResult>> ExperimentRunner::RunAll(
    const std::vector<RunSpec>& specs) const {
  // Resolve every spec before any run starts: a typo in spec #7 must not
  // cost the wall-clock of specs #1-#6.
  std::vector<ResolvedRun> runs;
  runs.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    StatusOr<ResolvedRun> run = ResolveRunSpec(simulation_, spec);
    if (!run.ok()) return run.status();
    runs.push_back(std::move(run).value());
  }

  // Execute. Runs are independent — each worker gets its own Simulator and
  // dispatcher — so the pool's schedule cannot affect any aggregate and
  // results land in pre-sized, disjoint slots. Failures (a streamed trace
  // turning unreadable mid-sweep) are per-slot; the first one, in spec
  // order, fails the sweep after every worker has finished.
  std::vector<RunResult> results(runs.size());
  std::vector<Status> statuses(runs.size());
  ThreadPool pool(num_threads_);
  pool.ParallelFor(static_cast<int>(runs.size()), [&](int i) {
    StatusOr<RunResult> result =
        ExecuteResolved(simulation_, runs[static_cast<size_t>(i)]);
    if (result.ok()) {
      results[static_cast<size_t>(i)] = std::move(result).value();
    } else {
      statuses[static_cast<size_t>(i)] = result.status();
    }
  });
  for (const Status& st : statuses) MRVD_RETURN_NOT_OK(st);
  return results;
}

StatusOr<RunResult> ExperimentRunner::RunOne(const Simulation& simulation,
                                             const RunSpec& spec) {
  StatusOr<ResolvedRun> run = ResolveRunSpec(simulation, spec);
  if (!run.ok()) return run.status();
  return ExecuteResolved(simulation, *run);
}

}  // namespace mrvd
