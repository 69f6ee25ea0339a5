#include "util/strings.h"

#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace mrvd {

std::vector<std::string_view> SplitString(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

StatusOr<double> ParseDouble(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty string is not a double");
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a double: '" + buf + "'");
  }
  return v;
}

StatusOr<int64_t> ParseInt64(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty string is not an int");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  // strtoll clamps to LLONG_MIN/MAX on overflow; that is a parse failure
  // here, not a value.
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of int64 range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double value) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, ptr) : std::to_string(value);
}

Status ParseKeyValueList(
    std::string_view list, const std::string& context,
    std::vector<std::pair<std::string, std::string>>* out) {
  for (std::string_view part : SplitString(list, ',')) {
    size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          "malformed parameter (expected key=value) in " + context);
    }
    std::string key(StripAsciiWhitespace(part.substr(0, eq)));
    std::string value(StripAsciiWhitespace(part.substr(eq + 1)));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument(
          "malformed parameter (expected key=value) in " + context);
    }
    for (const auto& [seen, unused] : *out) {
      if (seen == key) {
        return Status::InvalidArgument("duplicate parameter '" + key +
                                       "' in " + context);
      }
    }
    out->emplace_back(std::move(key), std::move(value));
  }
  return Status::OK();
}

}  // namespace mrvd
