// Self-registering dispatcher factory registry: the one way to build a
// dispatcher by name.
//
// The registry is a Catalog (api/catalog.h) of dispatcher factories: every
// dispatcher registers a factory keyed by its display name together with
// the typed parameters it accepts, so callers assemble dispatchers from
// declarative spec strings:
//
//   "IRG"                 the prediction-guided greedy, no parameters
//   "LS:max_sweeps=8"     local search capped at 8 sweeps
//   "RAND:seed=42"        the random baseline with an explicit seed
//
// Unknown names and malformed parameters fail with a Status naming the
// known roster / the declared parameters — never a silent nullptr.
//
// The built-in roster (IRG, LS, SHORT, RAND, NEAR, LTG, POLAR, UPPER)
// registers itself when the global registry is first touched; out-of-tree
// dispatchers self-register from their own translation unit with a static
// DispatcherRegistrar (see examples/custom_dispatcher.cpp).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/catalog.h"
#include "sim/batch.h"
#include "util/status.h"

namespace mrvd {

/// The registry's former names for the shared catalog types, kept while
/// perfbench/main.cc still spells them so.
using DispatcherParams = CatalogParams;
using ParsedDispatcherSpec = ParsedSpec;

using DispatcherFactory =
    std::function<std::unique_ptr<Dispatcher>(const CatalogParams&)>;

class DispatcherRegistry : public Catalog<DispatcherFactory> {
 public:
  /// The process-wide registry, with the built-in roster pre-registered.
  static DispatcherRegistry& Global();

  /// Catalog::Register, plus `requires_zero_pickup_travel`, which marks
  /// dispatchers (UPPER) that are only meaningful when the engine waives
  /// pickup travel — Simulation::Run applies the flag automatically.
  Status Register(std::string name, std::vector<CatalogParam> params,
                  DispatcherFactory factory,
                  bool requires_zero_pickup_travel = false,
                  CatalogCheck check = nullptr);

  /// Builds a dispatcher from a "NAME" or "NAME:key=value,key=value" spec.
  StatusOr<std::unique_ptr<Dispatcher>> Create(const std::string& spec) const;

  /// Builds from a pre-split name + override list (values still parsed and
  /// type-checked against the declaration).
  StatusOr<std::unique_ptr<Dispatcher>> Create(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& overrides) const;

  /// Splits "NAME:key=value,..." without resolving the name (syntax-only).
  static StatusOr<ParsedSpec> ParseSpec(const std::string& spec) {
    return SplitSpec("dispatcher", spec);
  }

  /// True for dispatchers that require SimConfig::zero_pickup_travel.
  bool RequiresZeroPickupTravel(const std::string& name) const {
    return zero_pickup_travel_.count(name) != 0;
  }

 private:
  DispatcherRegistry() : Catalog("dispatcher") {}

  /// Runs the resolved entry's factory; a null dispatcher is Internal.
  static StatusOr<std::unique_ptr<Dispatcher>> Build(
      const StatusOr<Resolved>& resolved);

  std::set<std::string> zero_pickup_travel_;
};

/// Self-registration handle: a static DispatcherRegistrar in the dispatcher's
/// translation unit adds it to the global roster before main() runs. A
/// duplicate name logs and keeps the first registration.
class DispatcherRegistrar {
 public:
  DispatcherRegistrar(std::string name, std::vector<CatalogParam> params,
                      DispatcherFactory factory,
                      bool requires_zero_pickup_travel = false);
};

}  // namespace mrvd
