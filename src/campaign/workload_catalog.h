// Named workload and scenario factories — the campaign layer's analogue of
// DispatcherRegistry. A campaign grid names its axes by catalog spec
// strings instead of wiring builders by hand:
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
// Spec syntax is shared with dispatcher specs ("NAME:key=value,..."), and
// parameters are typed (int64 / double / string). Canonicalize() validates
// a spec and normalises it (sorted keys, numerics reformatted with full
// fidelity), which is what makes campaign run keys stable under cosmetic
// spelling differences ("nyc: drivers = 60" == "nyc:drivers=60").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/simulation_builder.h"
#include "scenario/script.h"
#include "util/status.h"
#include "workload/types.h"

namespace mrvd {

/// One typed parameter a catalog entry accepts in its spec string.
struct CatalogParam {
  enum class Type { kInt64, kDouble, kString };

  CatalogParam() = default;
  CatalogParam(std::string param_name, Type param_type,
               std::string default_text, std::string help_text)
      : name(std::move(param_name)),
        type(param_type),
        default_value(std::move(default_text)),
        help(std::move(help_text)) {}

  std::string name;
  Type type = Type::kInt64;
  /// Textual default; must parse as `type` (checked at registration).
  std::string default_value;
  std::string help;
};

/// Resolved parameter values handed to a factory: every declared parameter
/// is present (spec overrides on top of the declared defaults).
class CatalogParams {
 public:
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

 private:
  template <typename FactoryT>
  friend class Catalog;
  struct Value {
    int64_t i = 0;
    double d = 0.0;
    std::string s;
  };
  std::map<std::string, Value> values_;
};

/// Rejects resolved parameter values an entry cannot build (a range, an
/// enumeration) with the reason; the catalog prefixes the entry's name.
using CatalogCheck = std::function<Status(const CatalogParams&)>;

/// Shared catalog machinery: a name -> (param declarations, factory) map
/// with spec parsing, type checking and canonicalisation. FactoryT is the
/// entry's build signature.
template <typename FactoryT>
class Catalog {
 public:
  explicit Catalog(std::string kind) : kind_(std::move(kind)) {}

  /// Registers `factory` under `name`. Duplicate names fail with
  /// FailedPrecondition (first registration wins); a default that does not
  /// parse as its declared type fails with InvalidArgument. `check`, when
  /// set, runs on every resolved spec — in Canonicalize() as well as before
  /// the factory — so a campaign grid holding a bad value fails at
  /// expansion, before any cell runs.
  Status Register(std::string name, std::vector<CatalogParam> params,
                  FactoryT factory, CatalogCheck check = nullptr);

  bool Known(const std::string& name) const {
    return entries_.count(name) != 0;
  }
  /// Registered names, sorted.
  std::vector<std::string> Names() const;
  /// "nyc, tlc" for error messages.
  std::string RosterString() const;

  /// Validates `spec` (known name, declared keys, values parse as their
  /// types, no duplicate keys, the entry's check passes) and returns the
  /// canonical form: every parameter with defaults filled in, sorted by
  /// key, numerics reformatted ("007" -> "7").
  StatusOr<std::string> Canonicalize(const std::string& spec) const;

 protected:
  struct Entry {
    std::vector<CatalogParam> params;
    FactoryT factory;
    CatalogCheck check;  ///< may be null
  };

  /// A validated spec: its entry and resolved parameter values.
  struct Resolved {
    std::string name;
    const Entry* entry = nullptr;
    CatalogParams params;  ///< every declared parameter, defaults filled in
  };

  /// Parses, type-checks and checks `spec`.
  StatusOr<Resolved> Resolve(const std::string& spec) const;

  /// Parses `raw` as `decl`'s type.
  static StatusOr<CatalogParams::Value> ParseValue(const CatalogParam& decl,
                                                   const std::string& raw);

  std::string kind_;  ///< "workload" / "scenario", for error messages
  std::map<std::string, Entry> entries_;
};

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
