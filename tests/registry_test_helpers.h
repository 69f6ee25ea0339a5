// Shared DispatcherRegistry helpers for the roster-sweeping test suites
// (equivalence, scenario, param-sweep): one place for "build a seeded
// dispatcher from the registry" and the roster filters, so seeding or
// trait changes never have to be applied per file.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/dispatcher_registry.h"

namespace mrvd::test {

/// Registry-built dispatcher, overriding the "seed" parameter where the
/// dispatcher declares one (default: the equivalence suites' canonical
/// seed). Fails the surrounding test (and returns null) on a registry
/// error. The full uint64 seed domain survives the int64 spec parameter
/// via two's-complement formatting.
inline std::unique_ptr<Dispatcher> MakeSeeded(const std::string& name,
                                              uint64_t seed = 5) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  std::vector<std::pair<std::string, std::string>> overrides;
  if (registry.HasParam(name, "seed")) {
    overrides.emplace_back("seed",
                           std::to_string(static_cast<int64_t>(seed)));
  }
  StatusOr<std::unique_ptr<Dispatcher>> d = registry.Create(name, overrides);
  EXPECT_TRUE(d.ok()) << d.status();
  return d.ok() ? std::move(d).value() : nullptr;
}

/// The full registered roster, sorted — sweeps iterate this instead of a
/// hand-written name list.
inline std::vector<std::string> FullRoster() {
  return DispatcherRegistry::Global().Names();
}

/// Registered dispatchers meaningful under a standard config — the
/// zero-pickup-travel trait filters UPPER (and any future special-mode
/// dispatcher) out automatically.
inline std::vector<std::string> RosterWithoutZeroPickup() {
  std::vector<std::string> names;
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  for (const std::string& name : registry.Names()) {
    if (!registry.RequiresZeroPickupTravel(name)) names.push_back(name);
  }
  return names;
}

}  // namespace mrvd::test
