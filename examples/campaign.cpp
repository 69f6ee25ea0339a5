// Campaign CLI — run, resume and summarize multi-workload experiment grids
// from the command line (read examples/quickstart.cpp first for the
// experiment API underneath; the campaign layer is the grid above it).
//
// A campaign is a declarative cross-product of {workloads x scenarios x
// dispatchers x seeds x config deltas}; every cell's RunResult lands in the
// campaign directory as a content-addressed JSON artifact, so a killed
// campaign resumes exactly where it stopped:
//
//   ./campaign run     out/demo --dispatchers "NEAR;RAND" --reps 3
//   ./campaign resume  out/demo          # re-executes only missing cells
//   ./campaign summarize out/demo        # read-only aggregation
//
// The `trace` catalog workload streams a binary order trace with O(batch)
// memory; tools/tlc_to_trace converts a TLC trip CSV into one:
//
//   ./build/tools/tlc_to_trace trips.csv day.trace --drivers 3000 --day 27
//   ./build/examples/campaign run out/day --workloads "trace:path=day.trace"
//
// `resume` and `summarize` re-read the grid from <dir>/campaign.json — no
// flags needed. Axis flags take ';'-separated catalog/registry specs
// (specs contain commas): see WorkloadCatalog / ScenarioCatalog /
// DispatcherRegistry for the rosters.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/campaign run /tmp/demo
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/dispatcher_registry.h"
#include "campaign/campaign.h"
#include "util/strings.h"

using namespace mrvd;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <run|resume|summarize> <campaign-dir> [options]\n"
      "\n"
      "options (run only; resume/summarize read <dir>/campaign.json):\n"
      "  --name NAME           campaign name (default: demo)\n"
      "  --workloads SPECS     ';'-separated WorkloadCatalog specs\n"
      "                        (default: nyc:orders=4000,drivers=60)\n"
      "  --scenarios SPECS     ';'-separated ScenarioCatalog specs\n"
      "                        (default: none)\n"
      "  --dispatchers SPECS   ';'-separated dispatcher specs\n"
      "                        (default: NEAR;RAND)\n"
      "  --deltas SPECS        ';'-separated SimConfig overrides\n"
      "  --reps N              replication seeds 1..N (default: 2)\n"
      "  --seeds LIST          explicit ','-separated seeds (overrides --reps)\n"
      "  --threads N           concurrent cells, 0 = hardware (default: 1)\n"
      "\n"
      "known workloads:   %s\n"
      "known scenarios:   %s\n"
      "known dispatchers: %s\n",
      argv0, WorkloadCatalog::Global().RosterString().c_str(),
      ScenarioCatalog::Global().RosterString().c_str(),
      DispatcherRegistry::Global().RosterString().c_str());
  return 2;
}

std::vector<std::string> SplitSpecs(const std::string& list) {
  std::vector<std::string> out;
  for (std::string_view part : SplitString(list, ';')) {
    std::string_view trimmed = StripAsciiWhitespace(part);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

void PrintReport(const CampaignReport& report, const std::string& dir) {
  std::printf("cells: %zu  (executed %lld, loaded %lld, failed %lld)\n",
              report.cells.size(), (long long)report.executed,
              (long long)report.loaded, (long long)report.failed);
  for (const CellOutcome& outcome : report.cells) {
    if (outcome.source != CellOutcome::Source::kFailed) continue;
    std::printf("  FAILED %s: %s\n", outcome.cell.key.c_str(),
                outcome.error.c_str());
  }
  std::printf(
      "\n%-28s %-24s %-14s %4s %12s %9s %9s\n", "workload", "scenario",
      "dispatcher", "n", "revenue", "service%", "wait-s");
  for (const GroupSummary& s : report.summaries) {
    std::string dispatcher = s.dispatcher;
    if (!s.config_delta.empty()) dispatcher += " [" + s.config_delta + "]";
    std::printf("%-28.28s %-24.24s %-14.14s %4lld %12.4e %8.2f%% %9.1f\n",
                s.workload.c_str(), s.scenario.c_str(), dispatcher.c_str(),
                (long long)s.replications, s.revenue.mean(),
                100.0 * s.service_rate.mean(), s.wait_mean_s.mean());
  }
  std::printf("\ncampaign dir: %s\n", dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string command = argv[1];
  const std::string dir = argv[2];
  if (command != "run" && command != "resume" && command != "summarize") {
    return Usage(argv[0]);
  }

  CampaignSpec spec;
  spec.name = "demo";
  spec.workloads = {"nyc:orders=4000,drivers=60"};
  spec.dispatchers = {"NEAR", "RAND"};
  int reps = 2;
  CampaignOptions options;

  bool explicit_seeds = false;
  for (int i = 3; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--name") == 0) {
      spec.name = value("--name");
    } else if (std::strcmp(argv[i], "--workloads") == 0) {
      spec.workloads = SplitSpecs(value("--workloads"));
    } else if (std::strcmp(argv[i], "--scenarios") == 0) {
      spec.scenarios = SplitSpecs(value("--scenarios"));
    } else if (std::strcmp(argv[i], "--dispatchers") == 0) {
      spec.dispatchers = SplitSpecs(value("--dispatchers"));
    } else if (std::strcmp(argv[i], "--deltas") == 0) {
      spec.config_deltas = SplitSpecs(value("--deltas"));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      StatusOr<int64_t> n = ParseInt64(value("--reps"));
      if (!n.ok() || *n < 1) {
        std::fprintf(stderr, "--reps needs a positive integer\n");
        return 2;
      }
      reps = static_cast<int>(*n);
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      explicit_seeds = true;
      spec.seeds.clear();
      for (std::string_view s : SplitString(value("--seeds"), ',')) {
        StatusOr<int64_t> seed = ParseInt64(StripAsciiWhitespace(s));
        if (!seed.ok()) {
          std::fprintf(stderr, "bad --seeds entry: %s\n",
                       seed.status().ToString().c_str());
          return 2;
        }
        spec.seeds.push_back(static_cast<uint64_t>(*seed));
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      StatusOr<int64_t> n = ParseInt64(value("--threads"));
      if (!n.ok() || *n < 0) {
        std::fprintf(stderr, "--threads needs an integer >= 0\n");
        return 2;
      }
      options.num_threads = static_cast<int>(*n);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (!explicit_seeds) {
    for (int s = 1; s <= reps; ++s) {
      spec.seeds.push_back(static_cast<uint64_t>(s));
    }
  }

  if (command != "run") {
    // The campaign directory is the source of truth for its own grid.
    StatusOr<CampaignSpec> saved = ArtifactStore(dir).LoadSpec();
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot %s '%s': %s\n", command.c_str(),
                   dir.c_str(), saved.status().ToString().c_str());
      return 1;
    }
    spec = std::move(saved).value();
  }

  CampaignRunner runner(std::move(spec), dir);
  StatusOr<CampaignReport> report =
      command == "run"      ? runner.Run(options)
      : command == "resume" ? runner.Resume(options)
                            : runner.Summarize();
  if (!report.ok()) {
    std::fprintf(stderr, "campaign %s failed: %s\n", command.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  PrintReport(*report, dir);
  return report->failed == 0 ? 0 : 1;
}
