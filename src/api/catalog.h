// Named, typed spec catalogs: the one implementation behind every
// "NAME:key=value,..." spec string — dispatchers (DispatcherRegistry),
// workloads and scenarios (the campaign layer's WorkloadCatalog and
// ScenarioCatalog).
//
//   "LS:max_sweeps=8"                a dispatcher with one override
//   "nyc:orders=20000,drivers=250"   a synthetic NYC-like day
//   "rush-hour:multiplier=1.8"       a scenario variant
//
// An entry declares its typed parameters (int64 / double / string) with
// textual defaults, a factory and optionally a check that rejects values
// the factory cannot build. Resolving a spec splits it, fills in the
// defaults, parses every value at its declared type and runs the check;
// Canonicalize() turns the resolved values into one string (every
// parameter, sorted by key, numerics reformatted), which is what campaign
// cell keys hash: "nyc: drivers = 60" == "nyc:drivers=60", "RAND" ==
// "RAND:seed=1".
//
// Catalog<FactoryT> is only the name -> entry map; the resolve and
// canonicalise steps are the non-template functions below, shared by every
// instantiation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

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
/// is present (spec overrides on top of the declared defaults). Int64
/// values are stored exactly, never squeezed through a double.
class CatalogParams {
 public:
  int64_t GetInt(const std::string& name) const { return values_.at(name).i; }
  double GetDouble(const std::string& name) const {
    return values_.at(name).d;
  }
  const std::string& GetString(const std::string& name) const {
    return values_.at(name).s;
  }

 private:
  friend StatusOr<CatalogParams> ResolveCatalogParams(
      const std::string&, const std::string&, const std::vector<CatalogParam>&,
      const std::vector<std::pair<std::string, std::string>>&);
  struct Value {
    int64_t i = 0;
    double d = 0.0;
    std::string s;
  };
  /// Parses `raw` as `decl`'s type; the message names the parameter.
  static StatusOr<Value> Parse(const CatalogParam& decl,
                               const std::string& raw);
  std::map<std::string, Value> values_;
};

/// Rejects resolved parameter values an entry cannot build (a range, an
/// enumeration) with the reason; the catalog prefixes the entry's name.
using CatalogCheck = std::function<Status(const CatalogParams&)>;

/// InvalidArgument naming `name` unless its int value lies in [lo, hi]:
/// the building block of checks for values a factory narrows.
Status CheckIntParam(const CatalogParams& params, const std::string& name,
                     int64_t lo, int64_t hi);

/// A spec split into its name and raw key=value overrides.
struct ParsedSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Splits "NAME" / "NAME:key=value,..." without resolving the name
/// (syntax only). `kind` ("dispatcher", "workload", ...) names the spec in
/// error messages. Values cannot contain ','.
StatusOr<ParsedSpec> SplitSpec(const std::string& kind,
                               const std::string& spec);

/// Resolves `overrides` against entry `name`'s declared `params`: every
/// parameter takes its override or else its default, parsed at its type.
/// An unknown key fails listing the declared ones.
StatusOr<CatalogParams> ResolveCatalogParams(
    const std::string& kind, const std::string& name,
    const std::vector<CatalogParam>& params,
    const std::vector<std::pair<std::string, std::string>>& overrides);

/// The canonical spec: `name` plus every declared parameter at its resolved
/// value, sorted by key ("LS:max_sweeps=16"). An empty string value is
/// omitted, since spec syntax cannot spell it.
std::string CanonicalSpecText(const std::string& name,
                              const std::vector<CatalogParam>& params,
                              const CatalogParams& values);

/// A name -> (param declarations, factory, check) map with spec resolution
/// and canonicalisation. FactoryT is the entry's build signature.
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
                  FactoryT factory, CatalogCheck check = nullptr) {
    if (name.empty()) {
      return Status::InvalidArgument(kind_ + " name must not be empty");
    }
    if (factory == nullptr) {
      return Status::InvalidArgument(kind_ + " '" + name +
                                     "' registered without a factory");
    }
    // Resolving no overrides parses every default.
    MRVD_RETURN_NOT_OK(ResolveCatalogParams(kind_, name, params, {}).status());
    auto [it, inserted] = entries_.try_emplace(
        std::move(name),
        Entry{std::move(params), std::move(factory), std::move(check)});
    if (!inserted) {
      return Status::FailedPrecondition(kind_ + " '" + it->first +
                                        "' is already registered");
    }
    return Status::OK();
  }

  bool Known(const std::string& name) const {
    return entries_.count(name) != 0;
  }
  bool HasParam(const std::string& name, const std::string& param) const {
    auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    for (const CatalogParam& p : it->second.params) {
      if (p.name == param) return true;
    }
    return false;
  }
  /// Registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, unused] : entries_) names.push_back(name);
    return names;  // std::map iteration is already sorted
  }
  /// "IRG, LS, LTG, ..." for error messages.
  std::string RosterString() const {
    std::string out;
    for (const auto& [name, unused] : entries_) {
      if (!out.empty()) out += ", ";
      out += name;
    }
    return out;
  }

  /// Validates `spec` (known name, declared keys, values parse as their
  /// types, no duplicate keys, the entry's check passes) and returns its
  /// canonical form (see CanonicalSpecText).
  StatusOr<std::string> Canonicalize(const std::string& spec) const {
    StatusOr<Resolved> resolved = Resolve(spec);
    if (!resolved.ok()) return resolved.status();
    return CanonicalSpecText(resolved->name, resolved->entry->params,
                             resolved->params);
  }

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

  /// Splits, type-checks and checks `spec`.
  StatusOr<Resolved> Resolve(const std::string& spec) const {
    StatusOr<ParsedSpec> parsed = SplitSpec(kind_, spec);
    if (!parsed.ok()) return parsed.status();
    return Resolve(parsed->name, parsed->params);
  }

  /// Type-checks and checks a pre-split name and override list.
  StatusOr<Resolved> Resolve(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& overrides)
      const {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("unknown " + kind_ + " '" + name + "'; known " +
                              kind_ + "s: " + RosterString());
    }
    const Entry& entry = it->second;
    StatusOr<CatalogParams> params =
        ResolveCatalogParams(kind_, name, entry.params, overrides);
    if (!params.ok()) return params.status();
    if (entry.check != nullptr) {
      Status checked = entry.check(*params);
      if (!checked.ok()) {
        return Status(checked.code(),
                      kind_ + " '" + name + "': " + checked.message());
      }
    }
    return Resolved{name, &entry, std::move(params).value()};
  }

  std::string kind_;  ///< "dispatcher" / "workload" / "scenario"
  std::map<std::string, Entry> entries_;
};

}  // namespace mrvd
