// Named workload and scenario factories: Catalogs (api/catalog.h), the
// implementation DispatcherRegistry shares. A campaign grid names its axes
// by catalog spec strings instead of wiring builders by hand:
//
//   "nyc:orders=20000,drivers=250"   synthetic NYC-like day at a scale
//   "paper:scale=0.02,drivers=1000"  the paper's §6 evaluation day
//   "tlc:path=/data/trips.csv"       a parsed TLC CSV day
//   "rush-hour:multiplier=1.8"       a BuildScenarioDay surge variant
//
// The built-in rosters install themselves when a global catalog is first
// touched, and factories are *lazily* invoked: a catalog spec is just a
// name until CampaignRunner needs the cell, so expanding a thousand grid
// cells costs nothing until runs execute.
//
// Spec syntax, typed parameters, checks and Canonicalize() are the
// Catalog's, so campaign run keys are stable under cosmetic spelling
// differences ("nyc: drivers = 60" == "nyc:drivers=60").
#pragma once

#include <functional>
#include <string>

#include "api/catalog.h"
#include "api/simulation_builder.h"
#include "scenario/script.h"
#include "util/status.h"
#include "workload/types.h"

namespace mrvd {

/// Builds a ready-to-run Simulation (workload + grid + travel model +
/// forecast + engine-config defaults) from the entry's parameters.
using WorkloadFactory =
    std::function<StatusOr<Simulation>(const CatalogParams&)>;

class WorkloadCatalog : public Catalog<WorkloadFactory> {
 public:
  /// The process-wide catalog, with the built-in roster (nyc, nyc-skew,
  /// tlc, trace, paper) pre-registered.
  static WorkloadCatalog& Global();

  /// Builds the named workload's Simulation. This is the expensive call
  /// (generator or CSV parse); CampaignRunner invokes it once per workload
  /// and shares the Simulation read-only across the workload's grid cells.
  StatusOr<Simulation> Build(const std::string& spec) const;

 private:
  WorkloadCatalog() : Catalog("workload") {}
};

/// Builds a ScenarioScript over a base workload from the entry's
/// parameters (the BuildScenarioDay variants, or an empty script).
using ScenarioFactory = std::function<StatusOr<ScenarioScript>(
    const Workload&, const CatalogParams&)>;

class ScenarioCatalog : public Catalog<ScenarioFactory> {
 public:
  /// The process-wide catalog, with the built-in roster (none, two-shift,
  /// cancel-hazard, rush-hour) pre-registered.
  static ScenarioCatalog& Global();

  /// Builds the named scenario's script over `workload`.
  StatusOr<ScenarioScript> Build(const std::string& spec,
                                 const Workload& workload) const;

 private:
  ScenarioCatalog() : Catalog("scenario") {}
};

}  // namespace mrvd
