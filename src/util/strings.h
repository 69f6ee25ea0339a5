// Small string helpers shared by the CSV reader and bench harnesses.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mrvd {

/// Splits `s` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> SplitString(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Strict numeric parsing (whole string must parse).
StatusOr<double> ParseDouble(std::string_view s);
StatusOr<int64_t> ParseInt64(std::string_view s);

/// Shortest round-trip formatting (std::to_chars): FormatDouble(x) parses
/// back to exactly x. THE formatter for every canonical spec form the
/// campaign content keys hash — one implementation, so numeric spelling
/// can never drift between the dispatcher/catalog/config-delta
/// canonicalizers and fork keys.
std::string FormatDouble(double value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses a "key=value,key=value" list into whitespace-trimmed pairs.
/// Rejects entries without '=', empty keys/values, and duplicate keys.
/// `context` names the enclosing spec in error messages (e.g. "spec 'LS:…'").
/// The one spec-string grammar shared by dispatcher specs, catalog specs
/// and campaign config deltas — one parser, so their behaviour (and the
/// content keys hashed from the canonical forms) can never drift apart.
Status ParseKeyValueList(
    std::string_view list, const std::string& context,
    std::vector<std::pair<std::string, std::string>>* out);

}  // namespace mrvd
