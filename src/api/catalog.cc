#include "api/catalog.h"

#include <algorithm>

#include "util/strings.h"

namespace mrvd {

namespace {

std::string DeclaredParamList(const std::vector<CatalogParam>& params) {
  std::string out;
  for (const auto& p : params) {
    if (!out.empty()) out += ", ";
    out += p.name;
  }
  return out;
}

}  // namespace

StatusOr<CatalogParams::Value> CatalogParams::Parse(const CatalogParam& decl,
                                                    const std::string& raw) {
  Value value;
  switch (decl.type) {
    case CatalogParam::Type::kInt64: {
      StatusOr<int64_t> v = ParseInt64(raw);
      if (!v.ok()) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "': not an int64: '" + raw + "'");
      }
      value.i = *v;
      value.d = static_cast<double>(*v);
      break;
    }
    case CatalogParam::Type::kDouble: {
      // .i stays 0: GetInt on a double parameter is a factory bug, and
      // casting an arbitrary double to int64 would be UB.
      StatusOr<double> v = ParseDouble(raw);
      if (!v.ok()) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "': not a number: '" + raw + "'");
      }
      value.d = *v;
      break;
    }
    case CatalogParam::Type::kString:
      value.s = raw;
      break;
  }
  return value;
}

Status CheckIntParam(const CatalogParams& params, const std::string& name,
                     int64_t lo, int64_t hi) {
  const int64_t value = params.GetInt(name);
  if (value >= lo && value <= hi) return Status::OK();
  return Status::InvalidArgument(name + " must be in [" + std::to_string(lo) +
                                 ", " + std::to_string(hi) + "], got " +
                                 std::to_string(value));
}

StatusOr<ParsedSpec> SplitSpec(const std::string& kind,
                               const std::string& spec) {
  ParsedSpec out;
  std::string_view rest = StripAsciiWhitespace(spec);
  size_t colon = rest.find(':');
  out.name = std::string(StripAsciiWhitespace(rest.substr(0, colon)));
  if (out.name.empty()) {
    return Status::InvalidArgument("empty " + kind + " name in spec '" + spec +
                                   "'");
  }
  if (colon == std::string_view::npos) return out;
  MRVD_RETURN_NOT_OK(ParseKeyValueList(rest.substr(colon + 1),
                                       kind + " spec '" + spec + "'",
                                       &out.params));
  return out;
}

StatusOr<CatalogParams> ResolveCatalogParams(
    const std::string& kind, const std::string& name,
    const std::vector<CatalogParam>& params,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  CatalogParams out;
  for (const CatalogParam& decl : params) {
    const std::string* raw = &decl.default_value;
    for (const auto& [key, value] : overrides) {
      if (key == decl.name) raw = &value;
    }
    StatusOr<CatalogParams::Value> value = CatalogParams::Parse(decl, *raw);
    if (!value.ok()) {
      return Status::InvalidArgument(kind + " '" + name + "' " +
                                     value.status().message());
    }
    out.values_[decl.name] = std::move(value).value();
  }
  for (const auto& [key, unused] : overrides) {
    if (out.values_.count(key) != 0) continue;
    return Status::InvalidArgument(
        kind + " '" + name + "' has no parameter '" + key + "'" +
        (params.empty()
             ? "; it takes no parameters"
             : "; declared parameters: " + DeclaredParamList(params)));
  }
  return out;
}

std::string CanonicalSpecText(const std::string& name,
                              const std::vector<CatalogParam>& params,
                              const CatalogParams& values) {
  std::vector<std::pair<std::string, std::string>> canonical;
  canonical.reserve(params.size());
  for (const CatalogParam& decl : params) {
    std::string text;
    switch (decl.type) {
      case CatalogParam::Type::kInt64:
        text = std::to_string(values.GetInt(decl.name));
        break;
      case CatalogParam::Type::kDouble:
        text = FormatDouble(values.GetDouble(decl.name));
        break;
      case CatalogParam::Type::kString:
        text = values.GetString(decl.name);
        break;
    }
    if (text.empty()) continue;
    canonical.emplace_back(decl.name, std::move(text));
  }
  std::sort(canonical.begin(), canonical.end());

  std::string out = name;
  for (size_t i = 0; i < canonical.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += canonical[i].first;
    out += '=';
    out += canonical[i].second;
  }
  return out;
}

}  // namespace mrvd
