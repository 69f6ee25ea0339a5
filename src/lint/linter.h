// mrvd_lint: the determinism & concurrency static-analysis pass.
//
// A token/line scanner (no libclang) over the source tree that enforces the
// invariants every headline claim rests on — streamed == materialised,
// resumed == from-scratch, any campaign thread count == serial — *at review
// time* instead of waiting for an equivalence test to flake:
//
//   include-layering          the ARCHITECTURE.md layer DAG: a file may only
//                             include headers from layers strictly below its
//                             own (or its own layer)
//   unordered-iteration       iterating an unordered_map/unordered_set in a
//                             result-affecting layer (sim, dispatch,
//                             campaign) — traversal order is unspecified
//   banned-random             rand()/srand()/std::random_device anywhere in
//                             src/ — all randomness goes through util/rng.h
//   banned-wallclock          *_clock::now(), time(nullptr), clock(),
//                             gettimeofday outside util/stopwatch.h
//   pointer-key               std::map/std::set keyed by a pointer type —
//                             iteration order follows allocation addresses
//   hardware-concurrency      direct std::thread::hardware_concurrency —
//                             thread-count policy lives in the single
//                             ThreadPool::HardwareThreads wrapper
//   naked-new                 a `new` expression outside a smart-pointer
//                             constructor idiom
//   using-namespace-header    `using namespace` in a header
//
// Plus three meta rules keeping the suppression mechanism honest:
// unknown-rule, suppression-needs-reason, unused-suppression.
//
// Findings print as `file:line: rule-id: message` (or --json). A finding is
// suppressed by a comment on the same line — or on a comment-only line
// directly above — spelling the lint marker (the tool name, then a colon)
// followed by `allow(<rule-id>)` and a mandatory reason. The marker is not
// written out here because this header is itself linted; see
// ARCHITECTURE.md "Static analysis" for the exact syntax and rule table.
#pragma once

#include <string>
#include <vector>

#include "util/status.h"

namespace mrvd {
namespace lint {

/// One diagnostic.
struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;  ///< non-empty iff suppressed
};

/// Rule-id plus one-line summary, for --list-rules and the docs table.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule the linter knows, in stable order.
const std::vector<RuleInfo>& Rules();

/// True if `id` names a known rule.
bool IsKnownRule(const std::string& id);

/// Lints one in-memory file. `path` drives layer classification: the path
/// component following the last "src/" segment is the layer directory
/// (fixture trees under tests/data/lint/src/<layer>/ classify identically
/// to the real tree). Findings are sorted by line, then rule.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content);

/// Lints files and directories (directories recurse into *.h, *.cc, *.cpp;
/// the walk order is sorted, so output is deterministic). Reports missing
/// paths and unreadable files as a non-OK Status.
StatusOr<std::vector<Finding>> LintPaths(const std::vector<std::string>& paths);

/// Findings that would fail CI (not suppressed).
size_t CountUnsuppressed(const std::vector<Finding>& findings);

/// `file:line: rule-id: message` lines; suppressed findings are included
/// (marked `[suppressed: reason]`) only when `show_suppressed`.
std::string RenderText(const std::vector<Finding>& findings,
                       bool show_suppressed);

/// {"findings": [...], "files_checked": N, "unsuppressed": M}. Suppressed
/// findings appear (with "suppressed": true and their reason) only when
/// `show_suppressed`.
std::string RenderJson(const std::vector<Finding>& findings,
                       size_t files_checked, bool show_suppressed);

}  // namespace lint
}  // namespace mrvd
