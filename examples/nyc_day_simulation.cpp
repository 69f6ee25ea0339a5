// Full-day NYC-style simulation comparing every dispatching approach on the
// same workload — the paper's evaluation loop in miniature, expressed as a
// RunOne loop over the DispatcherRegistry's roster. Also shows the staged
// engine's SimObserver hooks: the library's HourlyBreakdown observer
// collects a per-hour served/reneged breakdown for one approach without
// touching the engine.
// (New here? Read examples/quickstart.cpp first — it introduces the
// SimulationBuilder surface this example builds on.)
//
// Usage:
//   ./build/examples/nyc_day_simulation [options] [orders_per_day]
//                                       [num_drivers] [tlc.csv]
// Options:
//   --orders N      orders per generated day        (default 30000)
//   --drivers N     fleet size                      (default 300)
//   --tlc PATH      real TLC trip CSV instead of the generator
//   --threads N     dispatch worker threads; 0 = hardware concurrency
//                   (default 1 = serial)
//   --shards N      region shards for the parallel pipeline; 0 derives
//                   2x the worker count (default 0)
//   --scenario S    "none" (default) or "day": a scripted two-shift +
//                   cancellation-hazard + rush-hour-surge day through the
//                   scenario event subsystem (see examples/scenario_day.cpp
//                   for the full roster under that script)
//   --stream PATH   stream a binary order trace (from tools/tlc_to_trace)
//                   instead of materialising a workload;
//                   peak memory stays O(batch) regardless of trace length.
//                   Prediction-free and scenario-free: the forecast needs
//                   the full day up front, which streaming deliberately
//                   avoids.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "geo/grid.h"
#include "prediction/predictor.h"
#include "scenario/generator.h"
#include "sim/hourly_stats.h"
#include "util/strings.h"
#include "workload/order_stream.h"
#include "workload/tlc_parser.h"

using namespace mrvd;

namespace {

/// Command-line configuration; positional [orders] [drivers] [tlc.csv] are
/// still accepted for backward compatibility.
struct CliOptions {
  double orders = 30000.0;
  int drivers = 300;
  std::string tlc_path;
  std::string stream_path;
  int threads = 1;
  int shards = 0;
  std::string scenario = "none";
};

/// Full-consumption numeric parsing on top of util/strings.h: "3OO",
/// "30k" and int-overflowing values are rejected, not silently truncated
/// the way atof/atoi would.
bool ParseNumber(const char* s, double* out) {
  StatusOr<double> v = ParseDouble(s);
  if (!v.ok()) return false;
  *out = v.value();
  return true;
}

bool ParseNumber(const char* s, int* out) {
  StatusOr<int64_t> v = ParseInt64(s);
  if (!v.ok() || v.value() < INT_MIN || v.value() > INT_MAX) return false;
  *out = static_cast<int>(v.value());
  return true;
}

bool ParseCli(int argc, char** argv, CliOptions* opt) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A flag's value must not itself look like a flag — "--orders --drivers
    // 500" is a missing value, not orders = 0.
    auto value = [&]() -> const char* {
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    auto numeric = [&](auto* out) {
      const char* v = value();
      if (v == nullptr) return false;
      if (!ParseNumber(v, out)) {
        std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), v);
        return false;
      }
      return true;
    };
    if (arg == "--orders") {
      if (!numeric(&opt->orders)) return false;
    } else if (arg == "--drivers") {
      if (!numeric(&opt->drivers)) return false;
    } else if (arg == "--tlc") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->tlc_path = v;
    } else if (arg == "--stream") {
      const char* v = value();
      if (v == nullptr) return false;
      opt->stream_path = v;
    } else if (arg == "--threads") {
      if (!numeric(&opt->threads)) return false;
    } else if (arg == "--shards") {
      if (!numeric(&opt->shards)) return false;
    } else if (arg == "--scenario") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "none") != 0 &&
                           std::strcmp(v, "day") != 0)) {
        return false;
      }
      opt->scenario = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else if (positional == 0) {
      if (!ParseNumber(arg.c_str(), &opt->orders)) return false;
      ++positional;
    } else if (positional == 1) {
      if (!ParseNumber(arg.c_str(), &opt->drivers)) return false;
      ++positional;
    } else if (positional == 2) {
      opt->tlc_path = arg;
      ++positional;
    } else {
      return false;
    }
  }
  return true;
}

/// Sweep the full dispatcher roster over an assembled environment and print
/// the comparison table (plus the IRG hourly breakdown) — shared by the
/// materialised and streamed paths so their output is comparable line for
/// line.
int SweepAndPrint(const Simulation& sim) {
  HourlyBreakdown hourly(sim.config().horizon_seconds);
  std::vector<RunResult> results;
  for (const std::string& name : DispatcherRegistry::Global().Names()) {
    RunSpec spec(name);
    if (name == "IRG") spec.observer = &hourly;
    StatusOr<RunResult> run = RunOne(sim, spec);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(run).value());
  }

  std::printf("\n%-8s %12s %10s %10s %8s %12s %12s %10s\n", "approach",
              "revenue", "served", "reneged", "cancel", "svc-rate",
              "batch-ms", "build-ms");
  for (const RunResult& run : results) {
    const SimResult& r = run.result;
    std::printf("%-8s %12.4e %10lld %10lld %8lld %11.1f%% %12.3f %10.4f\n",
                run.label.c_str(), r.total_revenue, (long long)r.served_orders,
                (long long)r.reneged_orders, (long long)r.cancelled_orders,
                100.0 * r.ServiceRate(), r.batch_seconds.mean() * 1e3,
                r.batch_build_seconds.mean() * 1e3);
  }
  std::printf("\nhourly breakdown (IRG):\n  hour   served  reneged\n");
  for (size_t h = 0; h < hourly.rows().size(); ++h) {
    const HourlyRow& row = hourly.rows()[h];
    if (row.served == 0 && row.reneged == 0) continue;
    std::printf("  %4zu %8lld %8lld\n", h, (long long)row.served,
                (long long)row.reneged);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseCli(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s [--orders N] [--drivers N] [--tlc PATH] "
                 "[--stream TRACE] [--threads N] [--shards N] "
                 "[--scenario none|day]\n",
                 argv[0]);
    return 2;
  }

  if (!opt.stream_path.empty()) {
    if (!opt.tlc_path.empty() || opt.scenario != "none") {
      std::fprintf(stderr,
                   "--stream is exclusive with --tlc and --scenario (the "
                   "streamed day is prediction- and scenario-free)\n");
      return 2;
    }
    StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(opt.stream_path);
    if (!info.ok()) {
      std::fprintf(stderr, "cannot read trace: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "streaming %s: %lld orders + %lld drivers, t=[%.0f, %.0f]s, "
        "horizon %.0fs\n",
        opt.stream_path.c_str(), (long long)info->order_count,
        (long long)info->driver_count, info->first_request_time,
        info->last_request_time, info->horizon_seconds);
    StatusOr<Simulation> sim = SimulationBuilder()
                                   .StreamTrace(opt.stream_path,
                                                MakeNycGrid16x16())
                                   .Threads(opt.threads)
                                   .Shards(opt.shards)
                                   .Build();
    if (!sim.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   sim.status().ToString().c_str());
      return 1;
    }
    return SweepAndPrint(*sim);
  }

  GeneratorConfig gen_cfg;
  gen_cfg.orders_per_day = opt.orders;
  NycLikeGenerator generator(gen_cfg);

  Workload day;
  if (!opt.tlc_path.empty()) {
    auto parsed = ParseTlcCsv(opt.tlc_path.c_str(), opt.drivers);
    if (!parsed.ok()) {
      std::fprintf(stderr, "TLC parse failed: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    day = std::move(parsed).value();
    std::printf("loaded %zu TLC orders\n", day.orders.size());
  } else {
    day = generator.GenerateDay(3, opt.drivers);
    std::printf("generated %zu synthetic orders\n", day.orders.size());
  }

  // Optional scripted scenario on top of the base workload.
  ScenarioScript script;
  if (opt.scenario == "day") {
    ScenarioDayConfig day_cfg;
    day_cfg.two_shift_fleet = true;
    day_cfg.cancel_probability = 0.05;
    day_cfg.surges.push_back(RushHourSurge(7.5 * 3600.0, 9.5 * 3600.0, 1.8));
    day_cfg.surges.push_back(RushHourSurge(17.0 * 3600.0, 19.0 * 3600.0, 2.2));
    script = BuildScenarioDay(day, day_cfg);
    std::printf("scenario \"day\": %zu scripted events\n", script.size());
  }

  // DeepST-surrogate forecast trained on 21 days of history.
  DemandHistory train = generator.GenerateHistory(22, 48);
  DemandHistory realized = generator.RealizedCounts(day, 48);
  for (int s = 0; s < 48; ++s) {
    for (int r = 0; r < train.num_regions(); ++r) {
      train.set(21, s, r, realized.at(0, s, r));
    }
  }
  auto deepst = MakeDeepStSurrogatePredictor();
  if (Status st = deepst->Train(train, generator.grid()); !st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto forecast = DemandForecast::Build(*deepst, train, /*eval_day=*/21);
  if (!forecast.ok()) return 1;

  // One assembled environment; the RunOne loop sweeps the registry's whole
  // roster over it (UPPER's zero-pickup-travel trait applies itself).
  StatusOr<Simulation> sim = SimulationBuilder()
                                 .WithWorkload(std::move(day), generator.grid())
                                 .WithForecast(std::move(forecast).value())
                                 .WithScenario(std::move(script))
                                 .Threads(opt.threads)
                                 .Shards(opt.shards)
                                 .Build();
  if (!sim.ok()) {
    std::fprintf(stderr, "build failed: %s\n", sim.status().ToString().c_str());
    return 1;
  }

  return SweepAndPrint(*sim);
}
