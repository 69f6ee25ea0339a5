#include "campaign/campaign_spec.h"

#include <algorithm>
#include <utility>

#include "api/dispatcher_registry.h"
#include "campaign/workload_catalog.h"
#include "util/strings.h"

namespace mrvd {

namespace {

/// One known SimConfig override key; every one is a double.
struct DeltaField {
  const char* name;
  double SimConfig::* field;
};

constexpr DeltaField kDeltaFields[] = {
    {"batch_interval", &SimConfig::batch_interval},
    {"window_seconds", &SimConfig::window_seconds},
    {"horizon_seconds", &SimConfig::horizon_seconds},
    {"alpha", &SimConfig::alpha},
    {"reneging_beta", &SimConfig::reneging_beta},
};

std::string KnownDeltaKeys() {
  std::string out;
  for (const DeltaField& f : kDeltaFields) {
    if (!out.empty()) out += ", ";
    out += f.name;
  }
  return out;
}

const DeltaField* FindDeltaField(std::string_view key) {
  for (const DeltaField& f : kDeltaFields) {
    if (key == f.name) return &f;
  }
  return nullptr;
}

/// One parsed config-delta entry.
struct DeltaValue {
  const DeltaField* field = nullptr;
  double value = 0.0;
};

/// Splits "key=value,..." via the shared spec-grammar parser and parses
/// each value as a double. Empty input -> empty list.
StatusOr<std::vector<DeltaValue>> ParseDelta(const std::string& delta) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string_view rest = StripAsciiWhitespace(delta);
  if (!rest.empty()) {
    MRVD_RETURN_NOT_OK(
        ParseKeyValueList(rest, "config delta '" + delta + "'", &pairs));
  }
  std::vector<DeltaValue> values;
  values.reserve(pairs.size());
  for (const auto& [key, raw] : pairs) {
    DeltaValue value;
    value.field = FindDeltaField(key);
    if (value.field == nullptr) {
      return Status::InvalidArgument("unknown config-delta key '" + key +
                                     "'; known keys: " + KnownDeltaKeys());
    }
    StatusOr<double> v = ParseDouble(raw);
    if (!v.ok()) {
      return Status::InvalidArgument("config-delta key '" + key +
                                     "': not a number: '" + raw + "'");
    }
    value.value = *v;
    values.push_back(value);
  }
  return values;
}

}  // namespace

Status ApplyConfigDelta(const std::string& delta, SimConfig* config) {
  StatusOr<std::vector<DeltaValue>> values = ParseDelta(delta);
  if (!values.ok()) return values.status();
  for (const DeltaValue& v : *values) config->*(v.field->field) = v.value;
  return Status::OK();
}

StatusOr<std::string> CanonicalizeConfigDelta(const std::string& delta) {
  StatusOr<std::vector<DeltaValue>> values = ParseDelta(delta);
  if (!values.ok()) return values.status();

  std::vector<std::pair<std::string, std::string>> canonical;
  canonical.reserve(values->size());
  for (const DeltaValue& v : *values) {
    canonical.emplace_back(v.field->name, FormatDouble(v.value));
  }
  std::sort(canonical.begin(), canonical.end());

  std::string out;
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (i > 0) out += ',';
    out += canonical[i].first;
    out += '=';
    out += canonical[i].second;
  }
  return out;
}

std::string CampaignCellKey(const std::string& workload,
                            const std::string& scenario,
                            const std::string& dispatcher,
                            const std::string& config_delta, uint64_t seed) {
  // FNV-1a 64 over the canonical tuple, fields separated by a unit
  // separator so no concatenation of different tuples can collide by
  // shifting bytes across a boundary. FNV is stable across platforms —
  // never replace it with std::hash (implementation-defined, would orphan
  // every existing artifact).
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1f;  // field separator
    h *= 1099511628211ull;
  };
  mix(workload);
  mix(scenario);
  mix(dispatcher);
  mix(config_delta);
  mix(std::to_string(seed));

  static const char* kHex = "0123456789abcdef";
  std::string key(16, '0');
  for (int i = 15; i >= 0; --i) {
    key[static_cast<size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return key;
}

namespace {

Status CheckAxisUnique(const char* axis,
                       const std::vector<std::string>& canonical) {
  for (size_t i = 0; i < canonical.size(); ++i) {
    for (size_t j = i + 1; j < canonical.size(); ++j) {
      if (canonical[i] == canonical[j]) {
        return Status::InvalidArgument(
            std::string("duplicate ") + axis + " axis entry '" +
            canonical[i] + "' (identical after canonicalisation)");
      }
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<CampaignCell>> ExpandGrid(const CampaignSpec& spec) {
  if (spec.workloads.empty()) {
    return Status::InvalidArgument("campaign '" + spec.name +
                                   "' has no workloads");
  }
  if (spec.dispatchers.empty()) {
    return Status::InvalidArgument("campaign '" + spec.name +
                                   "' has no dispatchers");
  }

  std::vector<std::string> workloads;
  for (const std::string& w : spec.workloads) {
    StatusOr<std::string> canonical = WorkloadCatalog::Global().Canonicalize(w);
    if (!canonical.ok()) return canonical.status();
    workloads.push_back(std::move(canonical).value());
  }
  std::vector<std::string> scenarios;
  for (const std::string& s :
       spec.scenarios.empty() ? std::vector<std::string>{"none"}
                              : spec.scenarios) {
    StatusOr<std::string> canonical = ScenarioCatalog::Global().Canonicalize(s);
    if (!canonical.ok()) return canonical.status();
    scenarios.push_back(std::move(canonical).value());
  }
  std::vector<std::string> dispatchers;
  for (const std::string& d : spec.dispatchers) {
    // Full resolved canonical form ("RAND" -> "RAND:seed=1"): the content
    // key hashes what the dispatcher actually runs with, so numerically
    // identical spellings — and defaults spelled out — share artifacts.
    StatusOr<std::string> canonical =
        DispatcherRegistry::Global().Canonicalize(d);
    if (!canonical.ok()) return canonical.status();
    dispatchers.push_back(std::move(canonical).value());
  }
  std::vector<std::string> deltas;
  for (const std::string& d : spec.config_deltas.empty()
                                  ? std::vector<std::string>{""}
                                  : spec.config_deltas) {
    StatusOr<std::string> canonical = CanonicalizeConfigDelta(d);
    if (!canonical.ok()) return canonical.status();
    deltas.push_back(std::move(canonical).value());
  }
  const std::vector<uint64_t>& seeds =
      spec.seeds.empty() ? std::vector<uint64_t>{0} : spec.seeds;

  MRVD_RETURN_NOT_OK(CheckAxisUnique("workload", workloads));
  MRVD_RETURN_NOT_OK(CheckAxisUnique("scenario", scenarios));
  MRVD_RETURN_NOT_OK(CheckAxisUnique("dispatcher", dispatchers));
  MRVD_RETURN_NOT_OK(CheckAxisUnique("config-delta", deltas));
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      if (seeds[i] == seeds[j]) {
        return Status::InvalidArgument("duplicate seed " +
                                       std::to_string(seeds[i]) +
                                       " on the seed axis");
      }
    }
  }

  std::vector<CampaignCell> cells;
  cells.reserve(workloads.size() * scenarios.size() * dispatchers.size() *
                deltas.size() * seeds.size());
  for (size_t w = 0; w < workloads.size(); ++w) {
    for (size_t sc = 0; sc < scenarios.size(); ++sc) {
      for (size_t d = 0; d < dispatchers.size(); ++d) {
        for (size_t cd = 0; cd < deltas.size(); ++cd) {
          for (size_t s = 0; s < seeds.size(); ++s) {
            CampaignCell cell;
            cell.workload = workloads[w];
            cell.scenario = scenarios[sc];
            cell.dispatcher = dispatchers[d];
            cell.config_delta = deltas[cd];
            cell.seed = seeds[s];
            cell.workload_index = static_cast<int>(w);
            cell.scenario_index = static_cast<int>(sc);
            cell.dispatcher_index = static_cast<int>(d);
            cell.delta_index = static_cast<int>(cd);
            cell.seed_index = static_cast<int>(s);
            cell.key = CampaignCellKey(cell.workload, cell.scenario,
                                       cell.dispatcher, cell.config_delta,
                                       cell.seed);
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace mrvd
