#include "lint/linter.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/json_writer.h"

namespace mrvd {
namespace lint {

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- layer table
//
// The enforced DAG, lowest rank first (see ARCHITECTURE.md "Static
// analysis"). A file in layer L may include its own layer and any layer of
// strictly lower rank; equal-rank layers are mutually independent.
struct LayerRank {
  const char* dir;
  int rank;
};
constexpr LayerRank kLayers[] = {
    {"util", 0},      {"geo", 0},                          // foundations
    {"stats", 1},     {"matching", 1},  {"queueing", 1},   // leaf math
    {"workload", 1},  {"lint", 1},                         // data + tooling
    {"telemetry", 1},                                      // observability
    {"scenario", 2},  {"prediction", 2},                   // feed the engine
    {"sim", 3},                                            // engine stages
    {"dispatch", 4},                                       // dispatchers
    {"api", 5},                                            // front door
    {"campaign", 6},                                       // grid layer
};

int LayerRankOf(const std::string& dir) {
  for (const LayerRank& l : kLayers) {
    if (dir == l.dir) return l.rank;
  }
  return -1;  // not a known layer
}

/// Layer directory of `path`: the component after the last "src/" segment
/// (empty when the file is not under a src/ tree or sits directly in src/).
std::string LayerOf(const std::string& path) {
  size_t pos = path.rfind("src/");
  if (pos != std::string::npos && pos > 0 && path[pos - 1] != '/') {
    // "foosrc/x" is not a src segment; retry from before it.
    pos = path.rfind("/src/", pos - 1);
    if (pos != std::string::npos) pos += 1;  // point at "src/"
  }
  if (pos == std::string::npos) return "";
  size_t start = pos + 4;
  size_t slash = path.find('/', start);
  if (slash == std::string::npos) return "";  // file directly under src/
  return path.substr(start, slash - start);
}

// --------------------------------------------------------------- rule ids
constexpr const char* kIncludeLayering = "include-layering";
constexpr const char* kUnorderedIteration = "unordered-iteration";
constexpr const char* kBannedRandom = "banned-random";
constexpr const char* kBannedWallclock = "banned-wallclock";
constexpr const char* kPointerKey = "pointer-key";
constexpr const char* kHardwareConcurrency = "hardware-concurrency";
constexpr const char* kNakedNew = "naked-new";
constexpr const char* kUsingNamespaceHeader = "using-namespace-header";
constexpr const char* kUnknownRule = "unknown-rule";
constexpr const char* kSuppressionNeedsReason = "suppression-needs-reason";
constexpr const char* kUnusedSuppression = "unused-suppression";

/// Layers whose traversal order reaches SimResult aggregates.
bool IsResultAffectingLayer(const std::string& layer) {
  return layer == "sim" || layer == "dispatch" || layer == "campaign";
}

// --------------------------------------------------- source preprocessing
//
// One pass splits the file into two same-length views: `code` (comments,
// string literals and char literals blanked to spaces; preprocessor lines
// kept verbatim so #include paths survive) and `comment` (only comment
// text, where suppressions live). Offsets are preserved, so scans can run
// over the whole buffer and map back to lines.
struct SourceViews {
  std::string code;
  std::string comment;
  std::vector<size_t> line_starts;  ///< offset of each line's first char
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

SourceViews BuildViews(const std::string& text) {
  SourceViews v;
  v.code.assign(text.size(), ' ');
  v.comment.assign(text.size(), ' ');
  v.line_starts.push_back(0);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  bool line_is_preproc = false;
  bool line_seen_code = false;  // any non-ws code char yet on this line
  std::string raw_delim;        // for R"delim( ... )delim"

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\n') {
      v.code[i] = '\n';
      v.comment[i] = '\n';
      v.line_starts.push_back(i + 1);
      if (state == State::kLineComment) state = State::kCode;
      if (state != State::kBlockComment && state != State::kRawString &&
          state != State::kString) {
        // Unterminated ordinary strings don't span lines.
        if (state == State::kChar) state = State::kCode;
      }
      line_is_preproc = false;
      line_seen_code = false;
      continue;
    }
    switch (state) {
      case State::kCode: {
        if (!line_seen_code && c == '#') line_is_preproc = true;
        if (!std::isspace(static_cast<unsigned char>(c))) line_seen_code = true;
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
          state = State::kLineComment;
          v.comment[i] = c;
          break;
        }
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
          state = State::kBlockComment;
          v.comment[i] = c;
          break;
        }
        if (c == '"') {
          if (line_is_preproc) {
            v.code[i] = c;  // keep #include "..." paths scannable
            // Consume the quoted path verbatim.
            size_t j = i + 1;
            while (j < text.size() && text[j] != '"' && text[j] != '\n') {
              v.code[j] = text[j];
              ++j;
            }
            if (j < text.size() && text[j] == '"') v.code[j] = '"';
            i = (j < text.size() && text[j] != '\n') ? j : j - 1;
            break;
          }
          if (i > 0 && text[i - 1] == 'R') {
            state = State::kRawString;
            raw_delim.clear();
            size_t j = i + 1;
            while (j < text.size() && text[j] != '(' && text[j] != '\n') {
              raw_delim.push_back(text[j]);
              ++j;
            }
            i = j > i ? j - 1 : i;  // loop ++ lands on '(' (blanked)
            break;
          }
          state = State::kString;
          break;
        }
        if (c == '\'') {
          // Digit separators (1'000'000) are not char literals.
          if (i > 0 && IsWordChar(text[i - 1]) &&
              std::isdigit(static_cast<unsigned char>(text[i - 1]))) {
            break;
          }
          state = State::kChar;
          break;
        }
        v.code[i] = c;
        break;
      }
      case State::kLineComment:
        v.comment[i] = c;
        break;
      case State::kBlockComment:
        v.comment[i] = c;
        if (c == '/' && i > 0 && text[i - 1] == '*') state = State::kCode;
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char (offset blanked already)
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString: {
        if (c == ')' && text.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < text.size() &&
            text[i + 1 + raw_delim.size()] == '"') {
          i += raw_delim.size() + 1;
          state = State::kCode;
        }
        break;
      }
    }
  }
  return v;
}

int LineOf(const SourceViews& v, size_t offset) {
  auto it = std::upper_bound(v.line_starts.begin(), v.line_starts.end(),
                             offset);
  return static_cast<int>(it - v.line_starts.begin());
}

std::string LineSlice(const std::string& buf, const SourceViews& v, int line) {
  size_t start = v.line_starts[static_cast<size_t>(line - 1)];
  size_t end = buf.find('\n', start);
  if (end == std::string::npos) end = buf.size();
  return buf.substr(start, end - start);
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// ------------------------------------------------------------ suppressions
struct Suppression {
  int line = 0;          ///< line the comment sits on
  int covered_line = 0;  ///< code line covered: own line, or (comment-only
                         ///< lines, so multi-line reasons work) the next
                         ///< line carrying code
  std::vector<std::string> rules;
  std::string reason;
  bool used = false;
};

/// Strips the leading "— " / "- " / ": " joiner off a suppression reason.
std::string StripReasonJoiner(std::string s) {
  s = Trim(s);
  static const char* kJoiners[] = {"\xE2\x80\x94", "\xE2\x80\x93", "--", "-",
                                   ":"};
  for (const char* j : kJoiners) {
    size_t n = std::strlen(j);
    if (s.compare(0, n, j) == 0) {
      s = Trim(s.substr(n));
      break;
    }
  }
  return s;
}

std::vector<Suppression> ParseSuppressions(const SourceViews& v,
                                           std::vector<Finding>* meta) {
  std::vector<Suppression> out;
  const std::string marker = "mrvd-lint:";
  int num_lines = static_cast<int>(v.line_starts.size());
  for (int line = 1; line <= num_lines; ++line) {
    std::string comment = LineSlice(v.comment, v, line);
    size_t m = comment.find(marker);
    if (m == std::string::npos) continue;
    Suppression sup;
    sup.line = line;
    sup.covered_line = line;
    if (Trim(LineSlice(v.code, v, line)).empty()) {
      int num = static_cast<int>(v.line_starts.size());
      int target = line + 1;
      while (target <= num && Trim(LineSlice(v.code, v, target)).empty()) {
        ++target;
      }
      sup.covered_line = target;
    }
    std::string rest = Trim(comment.substr(m + marker.size()));
    size_t open = rest.find("allow(");
    size_t close = open == std::string::npos ? std::string::npos
                                             : rest.find(')', open);
    if (open != 0 || close == std::string::npos) {
      meta->push_back({"", line, kUnknownRule,
                       "malformed mrvd-lint comment; expected "
                       "'allow(<rule-id>)' followed by a reason",
                       false, ""});
      continue;
    }
    std::string ids = rest.substr(open + 6, close - open - 6);
    std::istringstream split(ids);
    std::string id;
    while (std::getline(split, id, ',')) {
      id = Trim(id);
      if (id.empty()) continue;
      if (!IsKnownRule(id)) {
        meta->push_back({"", line, kUnknownRule,
                         "suppression names unknown rule '" + id + "'", false,
                         ""});
        continue;
      }
      sup.rules.push_back(id);
    }
    sup.reason = StripReasonJoiner(rest.substr(close + 1));
    if (sup.reason.empty()) {
      meta->push_back({"", line, kSuppressionNeedsReason,
                       "suppression must say why the finding is safe "
                       "(text after the closing ')')",
                       false, ""});
    }
    if (!sup.rules.empty()) out.push_back(std::move(sup));
  }
  return out;
}

// ------------------------------------------------------------ scan helpers

/// All offsets where `needle` occurs in `hay` as a whole word (neither
/// neighbour is a word char).
std::vector<size_t> FindWord(const std::string& hay, const std::string& needle,
                             size_t from = 0) {
  std::vector<size_t> out;
  for (size_t pos = hay.find(needle, from); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    if (pos > 0 && IsWordChar(hay[pos - 1])) continue;
    size_t end = pos + needle.size();
    if (end < hay.size() && IsWordChar(hay[end])) continue;
    out.push_back(pos);
  }
  return out;
}

size_t SkipWs(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Offset just past the '>' matching the '<' at `open`, or npos.
size_t MatchAngle(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      if (--depth == 0) return i + 1;
    }
    if (s[i] == ';') return std::string::npos;  // statement ended: malformed
  }
  return std::string::npos;
}

/// Offset just past the ')' matching the '(' at `open`, or npos.
size_t MatchParen(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

/// Last non-space character before `pos`, skipping an immediately
/// preceding "std::" qualifier. '\0' at buffer start.
char PrevSignificantChar(const std::string& s, size_t pos) {
  while (true) {
    while (pos > 0 &&
           std::isspace(static_cast<unsigned char>(s[pos - 1])) != 0) {
      --pos;
    }
    if (pos >= 5 && s.compare(pos - 5, 5, "std::") == 0) {
      pos -= 5;
      continue;
    }
    return pos == 0 ? '\0' : s[pos - 1];
  }
}

std::string ReadIdentifier(const std::string& s, size_t pos) {
  size_t start = SkipWs(s, pos);
  size_t end = start;
  while (end < s.size() && IsWordChar(s[end])) ++end;
  return s.substr(start, end - start);
}

std::set<std::string> IdentifiersIn(const std::string& s) {
  std::set<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    if (IsWordChar(s[i]) &&
        std::isdigit(static_cast<unsigned char>(s[i])) == 0) {
      size_t j = i;
      while (j < s.size() && IsWordChar(s[j])) ++j;
      out.insert(s.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

// ------------------------------------------------------------------ rules

void CheckIncludeLayering(const std::string& layer, const SourceViews& v,
                          std::vector<Finding>* out) {
  int src_rank = LayerRankOf(layer);
  if (src_rank < 0) return;
  const std::string& code = v.code;
  for (size_t pos = code.find("#include \""); pos != std::string::npos;
       pos = code.find("#include \"", pos + 1)) {
    size_t path_start = pos + 10;
    size_t path_end = code.find('"', path_start);
    if (path_end == std::string::npos) continue;
    std::string inc = code.substr(path_start, path_end - path_start);
    size_t slash = inc.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    std::string target = inc.substr(0, slash);
    int dst_rank = LayerRankOf(target);
    if (dst_rank < 0 || target == layer || dst_rank < src_rank) continue;
    out->push_back(
        {"", LineOf(v, pos), kIncludeLayering,
         "\"" + inc + "\" is layer '" + target + "' (rank " +
             std::to_string(dst_rank) + "), not below '" + layer + "' (rank " +
             std::to_string(src_rank) +
             ") — the layer DAG only allows downward includes",
         false, ""});
  }
}

/// Names declared (variables, members, parameters) with a direct
/// unordered_map/unordered_set type. Nested uses (vector<unordered_map<..>>)
/// are skipped: iterating the outer container is ordered.
std::set<std::string> CollectUnorderedNames(const SourceViews& v) {
  std::set<std::string> names;
  const std::string& code = v.code;
  for (const char* type : {"unordered_map", "unordered_set"}) {
    for (size_t pos : FindWord(code, type)) {
      char before = PrevSignificantChar(code, pos);
      if (before == '<' || before == ',') continue;  // nested template arg
      size_t open = SkipWs(code, pos + std::strlen(type));
      if (open >= code.size() || code[open] != '<') continue;
      size_t after = MatchAngle(code, open);
      if (after == std::string::npos) continue;
      size_t p = SkipWs(code, after);
      while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
        p = SkipWs(code, p + 1);
      }
      std::string name = ReadIdentifier(code, p);
      if (name.empty() || name == "const") continue;
      names.insert(name);
    }
  }
  return names;
}

void CheckUnorderedIteration(const std::string& layer, const SourceViews& v,
                             std::vector<Finding>* out) {
  if (!IsResultAffectingLayer(layer)) return;
  std::set<std::string> names = CollectUnorderedNames(v);
  const std::string& code = v.code;

  // Range-for over an unordered name (or a direct unordered temporary).
  for (size_t pos : FindWord(code, "for")) {
    size_t open = SkipWs(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    size_t close = MatchParen(code, open);
    if (close == std::string::npos) continue;
    std::string head = code.substr(open + 1, close - open - 2);
    // Top-level ':' (not '::') marks a range-for.
    size_t colon = std::string::npos;
    int depth = 0;
    for (size_t i = 0; i < head.size(); ++i) {
      if (head[i] == '(' || head[i] == '<' || head[i] == '[') ++depth;
      if (head[i] == ')' || head[i] == '>' || head[i] == ']') --depth;
      if (depth == 0 && head[i] == ':' &&
          (i + 1 >= head.size() || head[i + 1] != ':') &&
          (i == 0 || head[i - 1] != ':')) {
        colon = i;
      }
    }
    if (colon == std::string::npos) continue;
    std::string range = head.substr(colon + 1);
    bool direct = range.find("unordered_map") != std::string::npos ||
                  range.find("unordered_set") != std::string::npos;
    std::string hit;
    for (const std::string& id : IdentifiersIn(range)) {
      if (names.count(id) != 0) {
        hit = id;
        break;
      }
    }
    if (!direct && hit.empty()) continue;
    out->push_back({"", LineOf(v, pos), kUnorderedIteration,
                    "range-for over unordered container" +
                        (hit.empty() ? std::string()
                                     : " '" + hit + "'") +
                        " in result-affecting layer '" + layer +
                        "' — traversal order is unspecified; iterate a "
                        "sorted copy or an index vector",
                    false, ""});
  }

  // Explicit iterator walks: name.begin() / name->cbegin() / ...
  for (const char* fn : {"begin", "cbegin", "rbegin"}) {
    for (size_t pos : FindWord(code, fn)) {
      size_t after = SkipWs(code, pos + std::strlen(fn));
      if (after >= code.size() || code[after] != '(') continue;
      size_t p = pos;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
        --p;
      }
      bool member = false;
      if (p >= 1 && code[p - 1] == '.') {
        member = true;
        p -= 1;
      } else if (p >= 2 && code[p - 2] == '-' && code[p - 1] == '>') {
        member = true;
        p -= 2;
      }
      if (!member) continue;
      size_t id_end = p;
      while (p > 0 && IsWordChar(code[p - 1])) --p;
      std::string name = code.substr(p, id_end - p);
      if (names.count(name) == 0) continue;
      out->push_back({"", LineOf(v, pos), kUnorderedIteration,
                      "iterator walk over unordered container '" + name +
                          "' in result-affecting layer '" + layer +
                          "' — traversal order is unspecified",
                      false, ""});
    }
  }
}

void CheckBannedRandom(const SourceViews& v, std::vector<Finding>* out) {
  const std::string& code = v.code;
  for (const char* token : {"rand", "srand"}) {
    for (size_t pos : FindWord(code, token)) {
      size_t after = SkipWs(code, pos + std::strlen(token));
      if (after >= code.size() || code[after] != '(') continue;
      out->push_back({"", LineOf(v, pos), kBannedRandom,
                      std::string("'") + token +
                          "()' draws from hidden global state — use "
                          "util/rng.h (seeded xoshiro256**)",
                      false, ""});
    }
  }
  for (size_t pos : FindWord(code, "random_device")) {
    out->push_back({"", LineOf(v, pos), kBannedRandom,
                    "'std::random_device' is nondeterministic by design — "
                    "derive seeds from the workload/config instead",
                    false, ""});
  }
}

void CheckBannedWallclock(const std::string& path, const SourceViews& v,
                          std::vector<Finding>* out) {
  // The one place allowed to read the clock; everything else times itself
  // through its Stopwatch.
  if (path.ends_with("util/stopwatch.h")) return;
  const std::string& code = v.code;
  for (size_t pos : FindWord(code, "now")) {
    if (pos < 2 || code[pos - 1] != ':' || code[pos - 2] != ':') continue;
    size_t p = pos - 2;
    size_t id_end = p;
    while (p > 0 && IsWordChar(code[p - 1])) --p;
    std::string owner = code.substr(p, id_end - p);
    std::string lower = owner;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.size() < 5 || lower.compare(lower.size() - 5, 5, "clock") != 0) {
      continue;
    }
    out->push_back({"", LineOf(v, pos), kBannedWallclock,
                    "clock read '" + owner +
                        "::now()' outside util/stopwatch.h — results must "
                        "not depend on real time; wrap timing in Stopwatch",
                    false, ""});
  }
  for (size_t pos : FindWord(code, "time")) {
    size_t after = SkipWs(code, pos + 4);
    if (after >= code.size() || code[after] != '(') continue;
    size_t close = MatchParen(code, after);
    if (close == std::string::npos) continue;
    std::string arg = Trim(code.substr(after + 1, close - after - 2));
    if (arg != "nullptr" && arg != "NULL" && arg != "0") continue;
    out->push_back({"", LineOf(v, pos), kBannedWallclock,
                    "'time(" + arg +
                        ")' reads the wall clock — results must not depend "
                        "on real time",
                    false, ""});
  }
  for (size_t pos : FindWord(code, "clock")) {
    size_t after = SkipWs(code, pos + 5);
    if (after >= code.size() || code[after] != '(') continue;
    size_t close = MatchParen(code, after);
    if (close != after + 2) continue;  // only the zero-argument clock()
    out->push_back({"", LineOf(v, pos), kBannedWallclock,
                    "'clock()' reads process time — use util/stopwatch.h",
                    false, ""});
  }
  for (size_t pos : FindWord(code, "gettimeofday")) {
    out->push_back({"", LineOf(v, pos), kBannedWallclock,
                    "'gettimeofday' reads the wall clock — use "
                    "util/stopwatch.h",
                    false, ""});
  }
}

void CheckPointerKey(const SourceViews& v, std::vector<Finding>* out) {
  const std::string& code = v.code;
  for (const char* type : {"map", "set", "multimap", "multiset"}) {
    for (size_t pos : FindWord(code, type)) {
      char before = pos == 0 ? '\0' : code[pos - 1];
      if (before != '\0' && IsWordChar(before)) continue;  // unordered_map &c
      size_t open = pos + std::strlen(type);
      if (open >= code.size() || code[open] != '<') continue;
      // First top-level template argument.
      size_t end = MatchAngle(code, open);
      if (end == std::string::npos) continue;
      size_t arg_end = end - 1;
      int depth = 0;
      for (size_t i = open; i < end; ++i) {
        if (code[i] == '<' || code[i] == '(') ++depth;
        if (code[i] == '>' || code[i] == ')') --depth;
        if (depth == 1 && code[i] == ',') {
          arg_end = i;
          break;
        }
      }
      std::string key = Trim(code.substr(open + 1, arg_end - open - 1));
      if (key.empty() || key.back() != '*') continue;
      out->push_back({"", LineOf(v, pos), kPointerKey,
                      std::string("std::") + type + " keyed by pointer '" +
                          key +
                          "' — iteration order follows allocation "
                          "addresses, which vary run to run; key by a "
                          "stable id instead",
                      false, ""});
    }
  }
}

void CheckHardwareConcurrency(const SourceViews& v,
                              std::vector<Finding>* out) {
  for (size_t pos : FindWord(v.code, "hardware_concurrency")) {
    out->push_back({"", LineOf(v, pos), kHardwareConcurrency,
                    "direct hardware_concurrency read — thread-count "
                    "policy belongs in SimConfig::ResolveShards / the "
                    "single ThreadPool::HardwareThreads wrapper",
                    false, ""});
  }
}

void CheckNakedNew(const SourceViews& v, std::vector<Finding>* out) {
  for (size_t pos : FindWord(v.code, "new")) {
    // `make_unique`-style code never spells `new`; flag every expression.
    // (Skip `operator new` declarations, should one ever appear.)
    size_t before = pos;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(v.code[before - 1])) != 0) {
      --before;
    }
    if (before >= 8 && v.code.compare(before - 8, 8, "operator") == 0) {
      continue;
    }
    out->push_back({"", LineOf(v, pos), kNakedNew,
                    "naked 'new' — allocate through std::make_unique (or "
                    "wrap immediately in a smart pointer and suppress with "
                    "the reason the ctor is private / the leak is "
                    "deliberate)",
                    false, ""});
  }
}

void CheckUsingNamespaceHeader(const std::string& path, const SourceViews& v,
                               std::vector<Finding>* out) {
  if (path.size() < 2 || path.compare(path.size() - 2, 2, ".h") != 0) return;
  const std::string& code = v.code;
  for (size_t pos : FindWord(code, "using")) {
    size_t after = SkipWs(code, pos + 5);
    if (code.compare(after, 9, "namespace") != 0) continue;
    out->push_back({"", LineOf(v, pos), kUsingNamespaceHeader,
                    "'using namespace' in a header leaks the namespace "
                    "into every includer",
                    false, ""});
  }
}

}  // namespace

// ------------------------------------------------------------- public API

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {kIncludeLayering,
       "includes must point down the ARCHITECTURE.md layer DAG"},
      {kUnorderedIteration,
       "no unordered_map/unordered_set iteration in sim, dispatch, campaign"},
      {kBannedRandom,
       "no rand()/srand()/std::random_device; randomness goes through "
       "util/rng.h"},
      {kBannedWallclock,
       "no *_clock::now()/time()/clock()/gettimeofday outside "
       "util/stopwatch.h"},
      {kPointerKey,
       "no std::map/std::set keyed by pointers (address-ordered iteration)"},
      {kHardwareConcurrency,
       "hardware_concurrency only via ThreadPool::HardwareThreads / "
       "SimConfig::ResolveShards"},
      {kNakedNew, "no naked new; use std::make_unique"},
      {kUsingNamespaceHeader, "no 'using namespace' in headers"},
      {kUnknownRule, "suppressions must name known rules"},
      {kSuppressionNeedsReason, "suppressions must carry a reason"},
      {kUnusedSuppression, "suppressions must suppress something"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : Rules()) {
    if (id == r.id) return true;
  }
  return false;
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content) {
  SourceViews views = BuildViews(content);
  std::string layer = LayerOf(path);

  std::vector<Finding> findings;
  std::vector<Suppression> sups = ParseSuppressions(views, &findings);

  CheckIncludeLayering(layer, views, &findings);
  CheckUnorderedIteration(layer, views, &findings);
  CheckBannedRandom(views, &findings);
  CheckBannedWallclock(path, views, &findings);
  CheckPointerKey(views, &findings);
  CheckHardwareConcurrency(views, &findings);
  CheckNakedNew(views, &findings);
  CheckUsingNamespaceHeader(path, views, &findings);

  // Apply suppressions: a suppression covers its own line, and the next
  // line when it sits on a comment-only line.
  for (Finding& f : findings) {
    for (Suppression& s : sups) {
      if (f.line != s.line && f.line != s.covered_line) continue;
      if (std::find(s.rules.begin(), s.rules.end(), f.rule) ==
          s.rules.end()) {
        continue;
      }
      f.suppressed = true;
      f.suppress_reason = s.reason;
      s.used = true;
      break;
    }
  }
  for (const Suppression& s : sups) {
    if (s.used) continue;
    std::string ids;
    for (const std::string& id : s.rules) {
      if (!ids.empty()) ids += ", ";
      ids += id;
    }
    findings.push_back({"", s.line, kUnusedSuppression,
                        "suppression for '" + ids +
                            "' matched no finding — delete it",
                        false, ""});
  }

  for (Finding& f : findings) f.file = path;
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

StatusOr<std::vector<Finding>> LintPaths(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp") {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) {
        return Status::IoError("could not walk '" + p + "': " + ec.message());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(fs::path(p).generic_string());
    } else {
      return Status::NotFound("no such file or directory: '" + p + "'");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return IoErrorFromErrno("could not open '" + file + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<Finding> fs_file = LintFile(file, buf.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(fs_file.begin()),
                    std::make_move_iterator(fs_file.end()));
  }
  return findings;
}

size_t CountUnsuppressed(const std::vector<Finding>& findings) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

std::string RenderText(const std::vector<Finding>& findings,
                       bool show_suppressed) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    if (f.suppressed && !show_suppressed) continue;
    os << f.file << ":" << f.line << ": " << f.rule << ": " << f.message;
    if (f.suppressed) os << " [suppressed: " << f.suppress_reason << "]";
    os << "\n";
  }
  return os.str();
}

std::string RenderJson(const std::vector<Finding>& findings,
                       size_t files_checked, bool show_suppressed) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("findings").BeginArray();
  for (const Finding& f : findings) {
    if (f.suppressed && !show_suppressed) continue;
    w.BeginObject();
    w.Key("file").String(f.file);
    w.Key("line").Number(static_cast<int64_t>(f.line));
    w.Key("rule").String(f.rule);
    w.Key("message").String(f.message);
    w.Key("suppressed").Bool(f.suppressed);
    if (f.suppressed) w.Key("reason").String(f.suppress_reason);
    w.EndObject();
  }
  w.EndArray();
  w.Key("files_checked").Number(static_cast<int64_t>(files_checked));
  w.Key("unsuppressed").Number(static_cast<int64_t>(CountUnsuppressed(findings)));
  w.EndObject();
  os << "\n";
  return os.str();
}

}  // namespace lint
}  // namespace mrvd
