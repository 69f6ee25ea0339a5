#include "api/experiment_runner.h"

#include <memory>
#include <utility>

#include "api/dispatcher_registry.h"
#include "util/stopwatch.h"

namespace mrvd {

StatusOr<RunResult> RunOne(const Simulation& simulation, const RunSpec& spec) {
  // Resolve the spec against the registry and the simulation's defaults:
  // replication-seed injection, dispatcher construction, config override
  // plus the zero-pickup trait, scenario choice.
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  StatusOr<ParsedSpec> parsed =
      DispatcherRegistry::ParseSpec(spec.dispatcher);
  if (!parsed.ok()) return parsed.status();
  if (spec.replication_seed != 0 && registry.HasParam(parsed->name, "seed")) {
    // Two's-complement int64 formatting keeps the full uint64 seed
    // domain through the int64 spec parameter; the factory's cast back to
    // uint64 restores the exact bit pattern.
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
  SimConfig config =
      spec.config.has_value() ? *spec.config : simulation.config();
  if (registry.RequiresZeroPickupTravel(parsed->name)) {
    config.zero_pickup_travel = true;
  }

  // Runs are independent (own dispatcher, Simulator, and — when streaming
  // — stream reader), so a spec gives the same RunResult on any thread.
  // RunWith validates the config before any batch runs.
  const ScenarioScript* scenario =
      spec.use_scenario ? simulation.scenario() : nullptr;
  Stopwatch watch;
  StatusOr<SimResult> sim_result =
      simulation.RunWith(config, **dispatcher, scenario, spec.observer);
  if (!sim_result.ok()) return sim_result.status();
  RunResult out;
  out.wall_seconds = watch.ElapsedSeconds();
  out.label = spec.label.empty() ? spec.dispatcher : spec.label;
  out.dispatcher = (*dispatcher)->name();
  out.spec = spec.dispatcher;
  out.replication_seed = spec.replication_seed;
  out.result = std::move(sim_result).value();
  return out;
}

}  // namespace mrvd
