#include "api/dispatcher_registry.h"

#include <limits>
#include <utility>

#include "dispatch/dispatchers.h"
#include "util/logging.h"

namespace mrvd {

namespace {

/// Declares the built-in roster (§6.3's eight approaches). Each entry is
/// self-contained: the factory lambda owns its parameter interpretation, so
/// adding an approach never touches a shared if/else chain.
void RegisterBuiltins(DispatcherRegistry* r) {
  auto must = [](Status st) {
    if (!st.ok()) {
      MRVD_LOG(Error) << "built-in dispatcher registration failed: " << st;
    }
  };
  using T = CatalogParam::Type;
  must(r->Register("RAND", {{"seed", T::kInt64, "1", "RNG seed"}},
                   [](const CatalogParams& p) {
                     return MakeRandomDispatcher(
                         static_cast<uint64_t>(p.GetInt("seed")));
                   }));
  must(r->Register("NEAR", {}, [](const CatalogParams&) {
    return MakeNearestDispatcher();
  }));
  must(r->Register("LTG", {}, [](const CatalogParams&) {
    return MakeLongTripGreedyDispatcher();
  }));
  must(r->Register("IRG", {}, [](const CatalogParams&) {
    return MakeIrgDispatcher();
  }));
  must(r->Register(
      "LS",
      {{"max_sweeps", T::kInt64, "16", "local-search pass cap (L_max)"}},
      [](const CatalogParams& p) {
        // The check makes the narrowing exact.
        return MakeLocalSearchDispatcher(
            static_cast<int>(p.GetInt("max_sweeps")));
      },
      /*requires_zero_pickup_travel=*/false,
      [](const CatalogParams& p) {
        // Below 1, LS would run no sweep and return IRG's assignment.
        return CheckIntParam(p, "max_sweeps", 1,
                             std::numeric_limits<int>::max());
      }));
  must(r->Register("SHORT", {}, [](const CatalogParams&) {
    return MakeShortDispatcher();
  }));
  must(r->Register("POLAR", {}, [](const CatalogParams&) {
    return MakePolarDispatcher();
  }));
  must(r->Register(
      "UPPER", {},
      [](const CatalogParams&) { return MakeUpperBoundDispatcher(); },
      /*requires_zero_pickup_travel=*/true));
}

}  // namespace

DispatcherRegistry& DispatcherRegistry::Global() {
  static DispatcherRegistry* registry = [] {
    // mrvd-lint: allow(naked-new) — deliberately leaked singleton; a static
    // object would be destroyed at exit while worker threads may still read it
    auto* r = new DispatcherRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

Status DispatcherRegistry::Register(std::string name,
                                    std::vector<CatalogParam> params,
                                    DispatcherFactory factory,
                                    bool requires_zero_pickup_travel,
                                    CatalogCheck check) {
  MRVD_RETURN_NOT_OK(Catalog::Register(name, std::move(params),
                                       std::move(factory), std::move(check)));
  if (requires_zero_pickup_travel) zero_pickup_travel_.insert(std::move(name));
  return Status::OK();
}

StatusOr<std::unique_ptr<Dispatcher>> DispatcherRegistry::Create(
    const std::string& spec) const {
  return Build(Resolve(spec));
}

StatusOr<std::unique_ptr<Dispatcher>> DispatcherRegistry::Create(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& overrides) const {
  return Build(Resolve(name, overrides));
}

StatusOr<std::unique_ptr<Dispatcher>> DispatcherRegistry::Build(
    const StatusOr<Resolved>& resolved) {
  if (!resolved.ok()) return resolved.status();
  std::unique_ptr<Dispatcher> dispatcher =
      resolved->entry->factory(resolved->params);
  if (dispatcher == nullptr) {
    return Status::Internal("factory for dispatcher '" + resolved->name +
                            "' returned null");
  }
  return dispatcher;
}

DispatcherRegistrar::DispatcherRegistrar(std::string name,
                                         std::vector<CatalogParam> params,
                                         DispatcherFactory factory,
                                         bool requires_zero_pickup_travel) {
  Status st = DispatcherRegistry::Global().Register(
      std::move(name), std::move(params), std::move(factory),
      requires_zero_pickup_travel);
  if (!st.ok()) {
    MRVD_LOG(Warn) << "dispatcher self-registration ignored: " << st;
  }
}

}  // namespace mrvd
