// Umbrella header for the experiment API — the canonical way to assemble
// and execute runs:
//
//   * SimulationBuilder / Simulation  — fluent, validated assembly; one run
//   * DispatcherRegistry              — dispatchers from spec strings
//   * RunSpec / RunOne                — one declarative run of a sweep
//
// A sweep is a loop over RunOne, or a CampaignRunner grid (campaign/).
// Several observers share one run's observer slot through ObserverList
// (sim/observer.h). Start with examples/quickstart.cpp; ARCHITECTURE.md
// ("Experiment API") explains how the layer sits above the engine.
#pragma once

#include "api/dispatcher_registry.h"   // IWYU pragma: export
#include "api/experiment_runner.h"     // IWYU pragma: export
#include "api/simulation_builder.h"    // IWYU pragma: export
