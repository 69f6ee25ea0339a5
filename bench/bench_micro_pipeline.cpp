// Micro-benchmark of the region-sharded parallel dispatch pipeline:
// serial vs. sharded per-batch latency for IRG / LS / SHORT on one
// synthetic NYC-scale batch, swept over thread counts — plus an
// engine-phase section that drives the staged engine over a synthetic
// day-slice and times batch *construction* (incremental snapshots +
// shard-parallel materialisation) separately from dispatch, via the
// engine's SimResult::batch_build_seconds series.
//
// Emits BENCH_pipeline.json (override the path with MRVD_BENCH_JSON) with
// one record per (dispatcher, threads): median per-batch milliseconds and
// speedup over the serial run, and one engine record per (dispatcher,
// threads) with mean construction/dispatch milliseconds. Every sharded run
// is also checked for bit-identical output against the serial baseline
// (assignments per batch, SimResult aggregates per run), so the bench
// doubles as a large-scale equivalence harness.
//
// The engine phase and the replication sweep run through the experiment
// API (SimulationBuilder + ExperimentRunner), so the bench doubles as an
// at-scale exercise of that layer; the "experiment_runner" series times an
// N-replication sweep at runner threads {1, 4} against serial. The same
// sweep is then routed through the campaign layer (CampaignRunner over a
// WorkloadCatalog spec, artifacts in a scratch dir) so the grid overhead —
// catalog build, content keys, artifact writes, manifest — is on the perf
// record, including an all-loaded resume timing; campaign cells must stay
// bit-identical to the ExperimentRunner serial baseline.
//
// Scale knobs (env):
//   MRVD_BENCH_RIDERS         riders in the batch        (default 1200)
//   MRVD_BENCH_DRIVERS        drivers in the batch       (default 900)
//   MRVD_BENCH_REPS           timed repetitions          (default 5)
//   MRVD_BENCH_THREADS        max threads swept          (default 8)
//   MRVD_BENCH_ENGINE_ORDERS  engine-phase orders/day    (default 20000)
//   MRVD_BENCH_ENGINE_DRIVERS engine-phase fleet size    (default 150)
//   MRVD_BENCH_ENGINE_HOURS   engine-phase horizon hours (default 2)
//   MRVD_BENCH_SWEEP_REPS     replication-sweep size     (default 6)
//   MRVD_BENCH_STREAM_ORDERS  streaming-phase trace size (default 200000;
//                             set 10000000 to reproduce the city-scale
//                             flat-RSS demonstration)
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/api.h"
#include "campaign/campaign.h"
#include "geo/region_partitioner.h"
#include "geo/travel.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "telemetry/session.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/order_stream.h"

// Injected by bench/CMakeLists.txt; fall back for non-CMake compiles.
#ifndef MRVD_BUILD_TYPE
#define MRVD_BUILD_TYPE "unknown"
#endif
#ifndef MRVD_SANITIZER
#define MRVD_SANITIZER ""
#endif

namespace mrvd {
namespace {

int EnvInt(const char* name, int fallback, int min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  int parsed = std::atoi(v);  // non-numeric -> 0 -> clamped
  return parsed < min_value ? min_value : parsed;
}

/// One synthetic batch at NYC scale: Zipf-skewed pickups over the 16x16
/// grid (the Manhattan-core concentration of Fig. 5) and gravity-style
/// dropoffs, fully deterministic from the seed.
std::unique_ptr<BatchContext> MakeBatch(const Grid& grid,
                                        const TravelCostModel& cost,
                                        int num_riders, int num_drivers,
                                        uint64_t seed) {
  auto ctx = std::make_unique<BatchContext>(
      /*now=*/3600.0, /*window=*/1200.0, /*beta=*/0.02, grid, cost,
      CandidateMode::kRingExpand);
  Rng rng(seed);
  ZipfTable hotspots(grid.num_regions(), /*s=*/0.9);
  auto point_in = [&](RegionId region) {
    BoundingBox cell = grid.CellBox(region);
    return LatLon{rng.Uniform(cell.lat_min, cell.lat_max),
                  rng.Uniform(cell.lon_min, cell.lon_max)};
  };
  for (int i = 0; i < num_riders; ++i) {
    WaitingRider r;
    r.order_id = i;
    r.pickup = point_in(static_cast<RegionId>(hotspots.Sample(rng)));
    r.dropoff = point_in(static_cast<RegionId>(hotspots.Sample(rng)));
    r.request_time = 3600.0 - rng.Uniform(0.0, 120.0);
    r.pickup_deadline = 3600.0 + rng.Uniform(120.0, 600.0);
    r.trip_seconds = cost.TravelSeconds(r.pickup, r.dropoff);
    r.revenue = r.trip_seconds;
    r.pickup_region = grid.RegionOf(r.pickup);
    r.dropoff_region = grid.RegionOf(r.dropoff);
    ctx->AddRider(r);
  }
  for (int j = 0; j < num_drivers; ++j) {
    AvailableDriver d;
    d.driver_id = j;
    d.location = point_in(static_cast<RegionId>(hotspots.Sample(rng)));
    d.region = grid.RegionOf(d.location);
    d.available_since = 3600.0 - rng.Uniform(0.0, 300.0);
    ctx->AddDriver(d);
  }
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(grid.num_regions()));
  for (const auto& r : ctx->riders()) {
    ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
  }
  for (const auto& d : ctx->drivers()) {
    ++snaps[static_cast<size_t>(d.region)].available_drivers;
  }
  for (auto& s : snaps) {
    s.predicted_riders = rng.Uniform(0.0, 40.0);
    s.predicted_drivers = rng.Uniform(0.0, 15.0);
  }
  ctx->SetSnapshots(std::move(snaps));
  return ctx;
}

struct Record {
  std::string dispatcher;
  int threads;
  double median_ms;
  double speedup;
  bool identical;
};

/// Engine-phase record: per-batch construction vs. dispatch time through
/// the staged engine on one synthetic day-slice.
struct EngineRecord {
  std::string dispatcher;
  int threads;
  double build_ms_mean;
  double build_ms_max;
  double dispatch_ms_mean;
  int64_t num_batches;
  bool identical;
};

double MedianMs(std::vector<double>& ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Serial-vs-sharded SimResult equivalence (the bit-exact aggregates).
bool SameResult(const SimResult& a, const SimResult& b) {
  return a.served_orders == b.served_orders &&
         a.reneged_orders == b.reneged_orders &&
         a.total_revenue == b.total_revenue &&
         a.num_batches == b.num_batches &&
         a.served_wait_seconds.mean() == b.served_wait_seconds.mean() &&
         a.driver_idle_seconds.mean() == b.driver_idle_seconds.mean();
}

}  // namespace

int Main() {
  const int num_riders = EnvInt("MRVD_BENCH_RIDERS", 1200, 0);
  const int num_drivers = EnvInt("MRVD_BENCH_DRIVERS", 900, 0);
  const int reps = EnvInt("MRVD_BENCH_REPS", 5, 1);
  const int max_threads = EnvInt("MRVD_BENCH_THREADS", 8, 1);
  const uint64_t seed = 20190417;

  Grid grid = MakeNycGrid16x16();
  StraightLineCostModel cost(7.0, 1.3);

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  const char* sanitizer = MRVD_SANITIZER[0] != '\0' ? MRVD_SANITIZER : "none";
  std::printf("pipeline micro-bench: %d riders, %d drivers, %d reps "
              "(build=%s sanitizer=%s)\n",
              num_riders, num_drivers, reps, MRVD_BUILD_TYPE, sanitizer);
  std::printf("%-10s %8s %12s %9s %10s\n", "dispatcher", "threads",
              "ms/batch", "speedup", "identical");

  std::vector<Record> records;
  for (const char* name : {"IRG", "LS", "SHORT"}) {
    double serial_ms = 0.0;
    std::vector<Assignment> serial_out;
    for (int threads : thread_counts) {
      // Pool and partitioner are built once and reused across reps — the
      // same lifecycle Simulator::Run gives them across batches. The shard
      // count is routed through SimConfig::ResolveShards so the bench
      // measures exactly the partition the engine would run.
      std::unique_ptr<ThreadPool> pool;
      std::unique_ptr<RegionPartitioner> parts;
      BatchExecution exec;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        parts = std::make_unique<RegionPartitioner>(
            RegionPartitioner::RowBands(grid,
                                        SimConfig().ResolveShards(threads)));
        exec.pool = pool.get();
        exec.partitioner = parts.get();
      }
      std::vector<double> ms;
      std::vector<Assignment> out;
      for (int rep = 0; rep < reps; ++rep) {
        // Fresh context per rep: the ET memo table must start cold, as it
        // does for every batch of a real run.
        auto ctx = MakeBatch(grid, cost, num_riders, num_drivers, seed);
        if (pool != nullptr) ctx->SetExecution(&exec);
        auto dispatcher = DispatcherRegistry::Global().Create(name);
        if (!dispatcher.ok()) {
          std::fprintf(stderr, "FATAL: %s\n",
                       dispatcher.status().ToString().c_str());
          return 1;
        }
        out.clear();
        Stopwatch watch;
        (*dispatcher)->Dispatch(*ctx, &out);
        ms.push_back(watch.ElapsedSeconds() * 1e3);
      }
      double median = MedianMs(ms);
      bool identical = true;
      if (threads == 1) {
        serial_ms = median;
        serial_out = out;
      } else {
        identical = out.size() == serial_out.size();
        for (size_t i = 0; identical && i < out.size(); ++i) {
          identical = out[i].rider_index == serial_out[i].rider_index &&
                      out[i].driver_index == serial_out[i].driver_index;
        }
      }
      Record rec{name, threads, median, serial_ms / median, identical};
      records.push_back(rec);
      std::printf("%-10s %8d %12.2f %8.2fx %10s\n", name, threads, median,
                  rec.speedup, identical ? "yes" : "NO");
      if (!identical) {
        std::fprintf(stderr,
                     "FATAL: %s diverged from serial at %d threads\n", name,
                     threads);
        return 1;
      }
    }
  }

  // ---- Engine phase: batch construction vs. dispatch through the staged
  // engine on a synthetic day-slice, expressed as an ExperimentRunner sweep
  // (one RunSpec per dispatcher × thread count, runner itself serial so the
  // per-batch timings stay clean). Construction time covers the incremental
  // snapshot assembly plus the (shard-parallel) rider/driver
  // materialisation and shard-index build; dispatch time is the
  // dispatcher's Dispatch() call. Sharded runs must reproduce the serial
  // SimResult bit-for-bit.
  const int engine_orders = EnvInt("MRVD_BENCH_ENGINE_ORDERS", 20000, 0);
  const int engine_drivers = EnvInt("MRVD_BENCH_ENGINE_DRIVERS", 150, 1);
  const int engine_hours = EnvInt("MRVD_BENCH_ENGINE_HOURS", 2, 1);

  GeneratorConfig gen_cfg;
  gen_cfg.orders_per_day = static_cast<double>(engine_orders);
  gen_cfg.seed = seed;
  NycLikeGenerator generator(gen_cfg);
  Workload day = generator.GenerateDay(/*day_index=*/1, engine_drivers);
  StraightLineCostModel engine_cost(7.0, 1.3);

  SimConfig engine_cfg;
  engine_cfg.horizon_seconds = engine_hours * 3600.0;
  engine_cfg.batch_interval = 5.0;
  StatusOr<Simulation> engine_sim = SimulationBuilder()
                                        .BorrowWorkload(day, generator.grid())
                                        .WithTravelModel(engine_cost)
                                        .WithConfig(engine_cfg)
                                        .Build();
  if (!engine_sim.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 engine_sim.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "\nengine phase: %zu orders, %d drivers, %dh horizon, delta=5s\n",
      day.orders.size(), engine_drivers, engine_hours);
  std::printf("%-10s %8s %12s %12s %12s %10s\n", "dispatcher", "threads",
              "build-ms", "dispatch-ms", "batches", "identical");

  const std::vector<std::string> engine_names{"IRG", "SHORT"};
  std::vector<RunSpec> engine_specs;
  for (const std::string& name : engine_names) {
    for (int threads : thread_counts) {
      RunSpec spec(name, name + "@" + std::to_string(threads));
      SimConfig cfg = engine_cfg;
      cfg.num_threads = threads;
      spec.config = cfg;
      engine_specs.push_back(std::move(spec));
    }
  }
  ExperimentRunner engine_runner(*engine_sim, /*num_threads=*/1);
  StatusOr<std::vector<RunResult>> engine_runs =
      engine_runner.RunAll(engine_specs);
  if (!engine_runs.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 engine_runs.status().ToString().c_str());
    return 1;
  }

  std::vector<EngineRecord> engine_records;
  for (size_t n = 0; n < engine_names.size(); ++n) {
    const SimResult* serial_result = nullptr;
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      const RunResult& run =
          (*engine_runs)[n * thread_counts.size() + t];
      const SimResult& r = run.result;
      bool identical = true;
      if (thread_counts[t] == 1) {
        serial_result = &r;
      } else {
        identical = SameResult(*serial_result, r);
      }
      EngineRecord rec{engine_names[n],
                       thread_counts[t],
                       r.batch_build_seconds.mean() * 1e3,
                       r.batch_build_seconds.max() * 1e3,
                       r.batch_seconds.mean() * 1e3,
                       r.num_batches,
                       identical};
      engine_records.push_back(rec);
      std::printf("%-10s %8d %12.4f %12.4f %12lld %10s\n",
                  engine_names[n].c_str(), thread_counts[t],
                  rec.build_ms_mean, rec.dispatch_ms_mean,
                  static_cast<long long>(rec.num_batches),
                  identical ? "yes" : "NO");
      if (!identical) {
        std::fprintf(stderr,
                     "FATAL: %s engine run diverged from serial at %d "
                     "threads\n",
                     engine_names[n].c_str(), thread_counts[t]);
        return 1;
      }
    }
  }

  // ---- Shard-balance phase: static vs load-aware adaptive row-band
  // sharding on a skewed-demand day (a rush-hour surge funnelling ~70% of
  // the window's arrivals into the top three grid rows, via the nyc-skew
  // catalog entry). For every thread count both modes must reproduce the
  // serial SimResult bit-for-bit — the partition never affects results,
  // only which worker does the work — while the per-shard telemetry
  // (DispatchCounters → SimResult) shows the imbalance the repartitioning
  // closes. On a 1-core box parity is the expected outcome; speedups need
  // real cores (see hardware_concurrency).
  struct ShardBalanceRecord {
    std::string mode;  ///< "static" | "adaptive"
    int threads;
    double ms_per_batch;
    double vs_static;  ///< static ms over this ms at the same thread count
    double size_imbalance;  ///< mean max/mean per-shard rider count
    double time_imbalance;  ///< mean max/mean per-shard wall time
    int64_t repartitions;
    bool identical;
  };
  const std::string skew_spec =
      "nyc-skew:orders=" + std::to_string(engine_orders) +
      ",drivers=" + std::to_string(engine_drivers) +
      ",speed_mps=7,batch_interval=5,horizon_hours=" +
      std::to_string(engine_hours) +
      ",surge_start_hour=0.5,surge_end_hour=1.5";
  StatusOr<Simulation> skew_sim = WorkloadCatalog::Global().Build(skew_spec);
  if (!skew_sim.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", skew_sim.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nshard_balance phase: skewed demand (%s)\n", skew_spec.c_str());
  std::printf("%-10s %8s %12s %10s %9s %9s %7s %10s\n", "mode", "threads",
              "ms/batch", "vs-static", "size-imb", "time-imb", "repart",
              "identical");

  std::vector<RunSpec> skew_specs;
  for (const char* mode : {"static", "adaptive"}) {
    for (int threads : thread_counts) {
      RunSpec spec("IRG",
                   std::string(mode) + "@" + std::to_string(threads));
      SimConfig cfg = skew_sim->config();
      cfg.num_threads = threads;
      cfg.adaptive_sharding = mode == std::string("adaptive");
      spec.config = cfg;
      skew_specs.push_back(std::move(spec));
    }
  }
  ExperimentRunner skew_runner(*skew_sim, /*num_threads=*/1);
  StatusOr<std::vector<RunResult>> skew_runs = skew_runner.RunAll(skew_specs);
  if (!skew_runs.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", skew_runs.status().ToString().c_str());
    return 1;
  }
  std::vector<ShardBalanceRecord> shard_records;
  const SimResult& skew_serial = (*skew_runs)[0].result;  // static@1
  for (size_t i = 0; i < skew_runs->size(); ++i) {
    const bool adaptive = i >= thread_counts.size();
    const size_t t = i % thread_counts.size();
    const SimResult& r = (*skew_runs)[i].result;
    const double static_ms =
        shard_records.empty() ? 0.0
                              : shard_records[t].ms_per_batch;
    ShardBalanceRecord rec{adaptive ? "adaptive" : "static",
                           thread_counts[t],
                           r.batch_seconds.mean() * 1e3,
                           adaptive ? static_ms / (r.batch_seconds.mean() *
                                                   1e3)
                                    : 1.0,
                           r.shard_size_imbalance.mean(),
                           r.shard_time_imbalance.mean(),
                           r.repartitions,
                           i == 0 || SameResult(skew_serial, r)};
    shard_records.push_back(rec);
    std::printf("%-10s %8d %12.2f %9.2fx %9.2f %9.2f %7lld %10s\n",
                rec.mode.c_str(), rec.threads, rec.ms_per_batch,
                rec.vs_static, rec.size_imbalance, rec.time_imbalance,
                static_cast<long long>(rec.repartitions),
                rec.identical ? "yes" : "NO");
    if (!rec.identical) {
      std::fprintf(stderr,
                   "FATAL: %s sharding diverged from serial at %d threads\n",
                   rec.mode.c_str(), rec.threads);
      return 1;
    }
  }

  // ---- ExperimentRunner phase: wall-clock of an N-replication sweep
  // (RAND:seed=i over a one-hour slice) executed serially vs. on runner
  // threads {4}. Replications are independent runs, so the sweep must be
  // bit-identical at every thread count; speedup requires real cores.
  const int sweep_reps = EnvInt("MRVD_BENCH_SWEEP_REPS", 6, 1);
  SimConfig sweep_cfg = engine_cfg;
  sweep_cfg.horizon_seconds = 3600.0;
  std::vector<RunSpec> sweep_specs;
  for (int i = 0; i < sweep_reps; ++i) {
    RunSpec spec("RAND", "RAND#" + std::to_string(i + 1));
    spec.config = sweep_cfg;
    spec.replication_seed = static_cast<uint64_t>(i + 1);
    sweep_specs.push_back(std::move(spec));
  }

  struct SweepRecord {
    int runner_threads;
    double wall_seconds;
    double speedup;
    bool identical;
  };
  std::printf("\nexperiment_runner phase: %d replications, 1h slice\n",
              sweep_reps);
  std::printf("%8s %12s %9s %10s\n", "threads", "wall-s", "speedup",
              "identical");
  std::vector<SweepRecord> sweep_records;
  std::vector<RunResult> sweep_serial;
  for (int runner_threads : {1, 4}) {
    ExperimentRunner sweep_runner(*engine_sim, runner_threads);
    Stopwatch sweep_watch;
    StatusOr<std::vector<RunResult>> sweep_runs =
        sweep_runner.RunAll(sweep_specs);
    double wall = sweep_watch.ElapsedSeconds();
    if (!sweep_runs.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   sweep_runs.status().ToString().c_str());
      return 1;
    }
    bool identical = true;
    if (runner_threads == 1) {
      sweep_serial = std::move(sweep_runs).value();
    } else {
      for (size_t i = 0; identical && i < sweep_serial.size(); ++i) {
        identical = SameResult(sweep_serial[i].result,
                               (*sweep_runs)[i].result);
      }
    }
    SweepRecord rec{runner_threads, wall,
                    sweep_records.empty()
                        ? 1.0
                        : sweep_records.front().wall_seconds / wall,
                    identical};
    sweep_records.push_back(rec);
    std::printf("%8d %12.3f %8.2fx %10s\n", rec.runner_threads,
                rec.wall_seconds, rec.speedup,
                identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: replication sweep diverged at %d runner threads\n",
                   runner_threads);
      return 1;
    }
  }

  // ---- Campaign phase: the identical replication sweep expressed as a
  // one-workload campaign grid (RAND x seeds) through CampaignRunner, so
  // the grid layer's overhead — catalog Simulation build, key hashing,
  // per-run artifact writes, manifest — lands on the perf record next to
  // the bare ExperimentRunner numbers. A final Resume() times the
  // all-loaded path (pure artifact reads, no simulation).
  struct CampaignRecord {
    std::string mode;  ///< "run@1", "run@4", "resume"
    double wall_seconds;
    int64_t executed;
    int64_t loaded;
    bool identical;
  };
  CampaignSpec campaign_spec;
  campaign_spec.name = "bench_micro_pipeline";
  campaign_spec.workloads = {
      "nyc:orders=" + std::to_string(engine_orders) +
      ",drivers=" + std::to_string(engine_drivers) +
      ",grid_rows=16,grid_cols=16,oracle=0,speed_mps=7"
      ",batch_interval=5,horizon_hours=1"};
  campaign_spec.dispatchers = {"RAND"};
  for (int i = 0; i < sweep_reps; ++i) {
    campaign_spec.seeds.push_back(static_cast<uint64_t>(i + 1));
  }
  // PID-suffixed scratch dir: concurrent bench invocations (parallel CI
  // jobs on one box) must not remove_all each other's in-flight artifacts.
  const std::string campaign_dir =
      (std::filesystem::temp_directory_path() /
       ("mrvd_bench_campaign_" + std::to_string(getpid())))
          .string();

  std::printf("\ncampaign phase: same sweep through the campaign layer\n");
  std::printf("%8s %12s %9s %9s %10s\n", "mode", "wall-s", "executed",
              "loaded", "identical");
  std::vector<CampaignRecord> campaign_records;
  auto check_campaign = [&](const char* mode, const CampaignReport& report,
                            double wall) -> bool {
    bool identical = report.failed == 0 &&
                     report.cells.size() == sweep_serial.size();
    for (size_t i = 0; identical && i < report.cells.size(); ++i) {
      const CellOutcome& outcome = report.cells[i];
      if (outcome.live.has_value()) {
        identical = SameResult(sweep_serial[i].result, outcome.live->result);
      } else {
        // Loaded cells carry headline aggregates only; check those.
        identical =
            outcome.artifact.served == sweep_serial[i].result.served_orders &&
            outcome.artifact.revenue == sweep_serial[i].result.total_revenue;
      }
    }
    campaign_records.push_back({mode, wall, report.executed, report.loaded,
                                identical});
    std::printf("%8s %12.3f %9lld %9lld %10s\n", mode, wall,
                (long long)report.executed, (long long)report.loaded,
                identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr, "FATAL: campaign %s diverged from the serial "
                           "sweep\n", mode);
    }
    return identical;
  };
  for (int campaign_threads : {1, 4}) {
    std::filesystem::remove_all(campaign_dir);
    CampaignRunner campaign_runner(campaign_spec, campaign_dir);
    CampaignOptions campaign_options;
    campaign_options.num_threads = campaign_threads;
    Stopwatch campaign_watch;
    StatusOr<CampaignReport> report = campaign_runner.Run(campaign_options);
    double wall = campaign_watch.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::string mode = "run@" + std::to_string(campaign_threads);
    if (!check_campaign(mode.c_str(), *report, wall)) return 1;
  }
  {
    // Resume over the complete artifact dir: every cell loads, nothing runs.
    CampaignRunner campaign_runner(campaign_spec, campaign_dir);
    Stopwatch campaign_watch;
    StatusOr<CampaignReport> report = campaign_runner.Resume();
    double wall = campaign_watch.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", report.status().ToString().c_str());
      return 1;
    }
    if (report->executed != 0) {
      std::fprintf(stderr, "FATAL: resume re-executed %lld completed cells\n",
                   (long long)report->executed);
      return 1;
    }
    if (!check_campaign("resume", *report, wall)) return 1;
  }
  std::filesystem::remove_all(campaign_dir);

  // ---- Telemetry overhead phase: the serial engine run with (a) no
  // session attached — the arm every run without WithTelemetry takes,
  // where each instrumentation site degrades to a null-pointer check —
  // (b) a metrics-only synchronous session, and (c) full tracing through
  // the async drainer. All arms must produce the identical SimResult, and
  // the instrumented arms must agree on the deterministic metric
  // signature; the overhead ratios land on the perf record (expected:
  // metrics ~1.00, tracing < 1.05) without a hard wall-clock gate — a
  // timing assert on a loaded CI box would flake.
  struct TelemetryRecord {
    std::string mode;  ///< "off" | "metrics" | "trace_async"
    double median_wall_s;
    double overhead;  ///< median over the off arm's median
    int64_t drained_events;
    bool identical;
  };
  std::printf("\ntelemetry_overhead phase: NEAR serial, %d reps\n", reps);
  std::printf("%-12s %12s %10s %12s %10s\n", "mode", "wall-s", "overhead",
              "spans", "identical");
  std::vector<TelemetryRecord> telemetry_records;
  SimResult telemetry_baseline;
  std::string telemetry_signature;
  for (const char* mode : {"off", "metrics", "trace_async"}) {
    const bool off = mode == std::string("off");
    const bool trace = mode == std::string("trace_async");
    std::vector<double> wall;
    SimResult last;
    int64_t drained = 0;
    std::string signature;
    for (int rep = 0; rep < reps; ++rep) {
      std::optional<telemetry::TelemetrySession> session;
      SimConfig cfg = engine_cfg;
      if (!off) {
        telemetry::TelemetryConfig tcfg;
        tcfg.tracing = trace;
        tcfg.async_drain = trace;
        session.emplace(tcfg);
        cfg.telemetry = &*session;
      }
      auto near = DispatcherRegistry::Global().Create("NEAR");
      if (!near.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     near.status().ToString().c_str());
        return 1;
      }
      Stopwatch watch;
      StatusOr<SimResult> run =
          engine_sim->RunWith(cfg, **near, /*scenario=*/nullptr);
      wall.push_back(watch.ElapsedSeconds());
      if (!run.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", run.status().ToString().c_str());
        return 1;
      }
      last = *run;
      if (session.has_value()) {
        session->Finish();
        drained = session->drained_events();
        signature = session->metrics().DeterministicSignature();
      }
    }
    double median_wall = MedianMs(wall);  // sorts in place; unit-agnostic
    bool identical = true;
    if (off) {
      telemetry_baseline = last;
    } else {
      identical = SameResult(telemetry_baseline, last);
      if (telemetry_signature.empty()) {
        telemetry_signature = signature;
      } else {
        identical = identical && signature == telemetry_signature;
      }
    }
    TelemetryRecord rec{
        mode, median_wall,
        telemetry_records.empty()
            ? 1.0
            : median_wall / telemetry_records.front().median_wall_s,
        drained, identical};
    telemetry_records.push_back(rec);
    std::printf("%-12s %12.3f %9.2fx %12lld %10s\n", mode, rec.median_wall_s,
                rec.overhead, static_cast<long long>(rec.drained_events),
                identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: telemetry arm %s changed the simulation result "
                   "or metric signature\n",
                   mode);
      return 1;
    }
  }

  // ---- Streaming phase: the binary order-trace ingestion path. A
  // synthetic multi-day trace is written record-at-a-time through
  // OrderStreamWriter (the writer itself is O(1) memory), then consumed
  // three ways: header-only startup (OrderStreamReader::Open), a pure
  // drain (Peek/Pop to exhaustion, no simulation — the raw ingest rate),
  // and a full NEAR serial run via SimulationBuilder::StreamTrace. The
  // streamed arms run at two sizes, N/10 and N, BEFORE the materialised
  // arm: ru_maxrss is process-lifetime-monotone, so flat peak RSS across a
  // 10x trace-size jump is only demonstrable while the full day has never
  // been resident. The materialised arm (ReadOrderTrace + WithWorkload on
  // the same N-order trace, same config) then pushes RSS linearly and must
  // reproduce the streamed SimResult bit-for-bit.
  struct StreamRecord {
    std::string mode;  ///< "streamed" | "materialised"
    int64_t orders;
    int64_t input_bytes;
    double startup_ms;  ///< Open() (header + fleet) vs full ReadOrderTrace
    double drain_orders_per_sec;  ///< streamed arms only (0 otherwise)
    double wall_seconds;          ///< NEAR serial run
    int64_t peak_rss_kb;          ///< ru_maxrss after the arm (monotone)
    bool identical;  ///< materialised arm vs streamed run of the same trace
  };
  const int stream_orders = EnvInt("MRVD_BENCH_STREAM_ORDERS", 200000, 1000);
  const int stream_drivers = 120;
  const double stream_rate = 25.0;  ///< arrivals per second of sim time

  auto peak_rss_kb = []() -> int64_t {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_maxrss);  // KiB on Linux
  };
  auto write_stream_trace = [&](const std::string& path,
                                int64_t n) -> Status {
    StatusOr<std::unique_ptr<OrderStreamWriter>> writer =
        OrderStreamWriter::Create(path, /*horizon_seconds=*/0.0);
    MRVD_RETURN_NOT_OK(writer.status());
    Rng rng(seed);
    auto point = [&]() {
      return LatLon{rng.Uniform(kNycBoundingBox.lat_min,
                                kNycBoundingBox.lat_max),
                    rng.Uniform(kNycBoundingBox.lon_min,
                                kNycBoundingBox.lon_max)};
    };
    for (int j = 0; j < stream_drivers; ++j) {
      MRVD_RETURN_NOT_OK((*writer)->AddDriver(DriverSpec{j, point(), 0.0}));
    }
    for (int64_t i = 0; i < n; ++i) {
      Order o;
      o.id = i;
      o.request_time = static_cast<double>(i) / stream_rate;
      o.pickup = point();
      o.dropoff = point();
      o.pickup_deadline = o.request_time + 120.0 + rng.Uniform(0.0, 60.0);
      MRVD_RETURN_NOT_OK((*writer)->AddOrder(o));
    }
    return (*writer)->Finish();
  };

  std::printf("\nstreaming phase: binary trace, NEAR serial, %d drivers\n",
              stream_drivers);
  std::printf("%-13s %10s %12s %10s %12s %10s %12s %10s\n", "mode", "orders",
              "bytes", "open-ms", "drain-o/s", "wall-s", "rss-kb",
              "identical");
  std::vector<StreamRecord> stream_records;
  SimResult stream_full_result;  ///< streamed run of the N-order trace
  const std::string trace_dir =
      (std::filesystem::temp_directory_path() /
       ("mrvd_bench_stream_" + std::to_string(getpid())))
          .string();
  std::filesystem::create_directories(trace_dir);
  for (int64_t n : {static_cast<int64_t>(stream_orders) / 10,
                    static_cast<int64_t>(stream_orders)}) {
    const std::string trace_path =
        trace_dir + "/trace_" + std::to_string(n) + ".bin";
    if (Status st = write_stream_trace(trace_path, n); !st.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", st.ToString().c_str());
      return 1;
    }

    // Startup: header + fleet only, independent of trace length.
    Stopwatch open_watch;
    StatusOr<std::unique_ptr<OrderStreamReader>> reader =
        OrderStreamReader::Open(trace_path);
    double open_ms = open_watch.ElapsedSeconds() * 1e3;
    if (!reader.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    const int64_t input_bytes = (*reader)->info().file_bytes;

    // Pure drain: the raw buffered-decode rate with no simulation on top.
    Stopwatch drain_watch;
    while ((*reader)->Peek() != nullptr) (*reader)->Pop();
    double drain_s = drain_watch.ElapsedSeconds();
    if (!(*reader)->status().ok() || (*reader)->consumed() != n) {
      std::fprintf(stderr, "FATAL: drain stopped at %lld/%lld: %s\n",
                   (long long)(*reader)->consumed(), (long long)n,
                   (*reader)->status().ToString().c_str());
      return 1;
    }

    SimConfig stream_cfg;
    stream_cfg.horizon_seconds = (*reader)->info().horizon_seconds;
    stream_cfg.batch_interval = 60.0;
    StatusOr<Simulation> stream_sim = SimulationBuilder()
                                          .StreamTrace(trace_path, grid)
                                          .WithTravelModel(engine_cost)
                                          .WithConfig(stream_cfg)
                                          .Build();
    if (!stream_sim.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   stream_sim.status().ToString().c_str());
      return 1;
    }
    auto near = DispatcherRegistry::Global().Create("NEAR");
    if (!near.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   near.status().ToString().c_str());
      return 1;
    }
    Stopwatch run_watch;
    StatusOr<SimResult> run =
        stream_sim->RunWith(stream_cfg, **near, /*scenario=*/nullptr);
    double wall = run_watch.ElapsedSeconds();
    if (!run.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", run.status().ToString().c_str());
      return 1;
    }
    // Every order must have flowed through the stream into the engine
    // (the horizon covers the last deadline, so each one resolves).
    if (run->total_orders != n ||
        run->served_orders + run->reneged_orders + run->cancelled_orders !=
            n) {
      std::fprintf(stderr,
                   "FATAL: streamed run accounted for %lld of %lld orders\n",
                   (long long)(run->served_orders + run->reneged_orders +
                               run->cancelled_orders),
                   (long long)n);
      return 1;
    }
    if (n == stream_orders) stream_full_result = *run;
    StreamRecord rec{"streamed", n,    input_bytes,    open_ms,
                     n / drain_s, wall, peak_rss_kb(), true};
    stream_records.push_back(rec);
    std::printf("%-13s %10lld %12lld %10.2f %12.0f %10.2f %12lld %10s\n",
                rec.mode.c_str(), (long long)rec.orders,
                (long long)rec.input_bytes, rec.startup_ms,
                rec.drain_orders_per_sec, rec.wall_seconds,
                (long long)rec.peak_rss_kb, "-");
  }

  {
    // Materialised arm on the same N-order trace: full-day ReadOrderTrace
    // into a Workload, then the identical config/dispatcher. Must be
    // bit-identical to the streamed run — the whole point of the format.
    const std::string trace_path =
        trace_dir + "/trace_" + std::to_string(stream_orders) + ".bin";
    Stopwatch mat_watch;
    StatusOr<Workload> materialised = ReadOrderTrace(trace_path);
    double mat_ms = mat_watch.ElapsedSeconds() * 1e3;
    if (!materialised.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   materialised.status().ToString().c_str());
      return 1;
    }
    const int64_t input_bytes =
        static_cast<int64_t>(std::filesystem::file_size(trace_path));
    SimConfig stream_cfg;
    stream_cfg.horizon_seconds = materialised->horizon_seconds;
    stream_cfg.batch_interval = 60.0;
    StatusOr<Simulation> mat_sim =
        SimulationBuilder()
            .WithWorkload(std::move(materialised).value(), grid)
            .WithTravelModel(engine_cost)
            .WithConfig(stream_cfg)
            .Build();
    if (!mat_sim.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   mat_sim.status().ToString().c_str());
      return 1;
    }
    auto near = DispatcherRegistry::Global().Create("NEAR");
    if (!near.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   near.status().ToString().c_str());
      return 1;
    }
    Stopwatch run_watch;
    StatusOr<SimResult> run =
        mat_sim->RunWith(stream_cfg, **near, /*scenario=*/nullptr);
    double wall = run_watch.ElapsedSeconds();
    if (!run.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", run.status().ToString().c_str());
      return 1;
    }
    bool identical = SameResult(stream_full_result, *run);
    StreamRecord rec{"materialised", stream_orders, input_bytes, mat_ms,
                     0.0,            wall,          peak_rss_kb(), identical};
    stream_records.push_back(rec);
    std::printf("%-13s %10lld %12lld %10.2f %12s %10.2f %12lld %10s\n",
                rec.mode.c_str(), (long long)rec.orders,
                (long long)rec.input_bytes, rec.startup_ms, "-",
                rec.wall_seconds, (long long)rec.peak_rss_kb,
                identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: streamed run diverged from the materialised run "
                   "of the same trace\n");
      return 1;
    }
  }
  std::filesystem::remove_all(trace_dir);

  const char* json_path = std::getenv("MRVD_BENCH_JSON");
  std::string path = json_path != nullptr ? json_path : "BENCH_pipeline.json";
  std::ofstream json(path);
  JsonWriter w(json);
  w.BeginObject();
  w.Key("bench").String("micro_pipeline");
  // Build-configuration stamp: Debug or sanitizer numbers must never be
  // diffed against Release records.
  w.Key("build_type").String(MRVD_BUILD_TYPE);
  w.Key("sanitizer").String(sanitizer);
  w.Key("grid").String("16x16");
  w.Key("riders").Number(num_riders);
  w.Key("drivers").Number(num_drivers);
  w.Key("reps").Number(reps);
  // The box's hardware concurrency, embedded so bench diffs across
  // machines stay comparable (a 1-core run cannot show speedups).
  w.Key("hardware_concurrency").Number(ThreadPool::HardwareThreads());
  w.Key("results").BeginArray();
  for (const Record& r : records) {
    w.BeginObject();
    w.Key("dispatcher").String(r.dispatcher);
    w.Key("threads").Number(r.threads);
    w.Key("ms_per_batch").Number(r.median_ms);
    w.Key("speedup").Number(r.speedup);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.Key("engine").BeginObject();
  w.Key("orders").Number(static_cast<int64_t>(day.orders.size()));
  w.Key("drivers").Number(engine_drivers);
  w.Key("horizon_hours").Number(engine_hours);
  w.Key("batch_interval_s").Number(5);
  w.Key("results").BeginArray();
  for (const EngineRecord& r : engine_records) {
    w.BeginObject();
    w.Key("dispatcher").String(r.dispatcher);
    w.Key("threads").Number(r.threads);
    w.Key("build_ms_mean").Number(r.build_ms_mean);
    w.Key("build_ms_max").Number(r.build_ms_max);
    w.Key("dispatch_ms_mean").Number(r.dispatch_ms_mean);
    w.Key("num_batches").Number(r.num_batches);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // Static vs adaptive sharding on the skewed-demand scenario. A 1-core
  // baseline can only show parity (vs_static ≈ 1); regenerate on multicore
  // hardware to see the win — hence the embedded hardware_concurrency.
  w.Key("shard_balance").BeginObject();
  w.Key("workload").String(skew_spec);
  w.Key("hardware_concurrency").Number(ThreadPool::HardwareThreads());
  w.Key("results").BeginArray();
  for (const ShardBalanceRecord& r : shard_records) {
    w.BeginObject();
    w.Key("mode").String(r.mode);
    w.Key("threads").Number(r.threads);
    w.Key("ms_per_batch").Number(r.ms_per_batch);
    w.Key("vs_static").Number(r.vs_static);
    w.Key("size_imbalance").Number(r.size_imbalance);
    w.Key("time_imbalance").Number(r.time_imbalance);
    w.Key("repartitions").Number(r.repartitions);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("experiment_runner").BeginObject();
  w.Key("replications").Number(sweep_reps);
  w.Key("horizon_hours").Number(1);
  w.Key("results").BeginArray();
  for (const SweepRecord& r : sweep_records) {
    w.BeginObject();
    w.Key("runner_threads").Number(r.runner_threads);
    w.Key("wall_seconds").Number(r.wall_seconds);
    w.Key("speedup").Number(r.speedup);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  // The same sweep through the campaign layer: wall-clock includes the
  // catalog Simulation build and the artifact store (writes for run@N,
  // reads for resume). Overhead = campaign run@1 vs runner_threads=1.
  w.Key("campaign").BeginArray();
  for (const CampaignRecord& r : campaign_records) {
    w.BeginObject();
    w.Key("mode").String(r.mode);
    w.Key("wall_seconds").Number(r.wall_seconds);
    w.Key("executed").Number(r.executed);
    w.Key("loaded").Number(r.loaded);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // Telemetry overhead: the off arm has no session (each instrumentation
  // site is a null-pointer check), the instrumented arms record their
  // wall-clock ratio over it plus the spans the tracing arm drained.
  w.Key("telemetry_overhead").BeginObject();
  w.Key("reps").Number(reps);
  w.Key("results").BeginArray();
  for (const TelemetryRecord& r : telemetry_records) {
    w.BeginObject();
    w.Key("mode").String(r.mode);
    w.Key("wall_seconds").Number(r.median_wall_s);
    w.Key("overhead").Number(r.overhead);
    w.Key("drained_events").Number(r.drained_events);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // Streaming ingestion: startup / raw drain rate / full-run wall clock,
  // with ru_maxrss after each arm. The streamed arms precede the
  // materialised arm in program order, so "peak_rss_kb" flat across the
  // 10x size jump (and jumping only at the materialised arm) is the
  // O(batch)-memory demonstration; input_bytes is the on-disk trace size.
  w.Key("streaming").BeginObject();
  w.Key("drivers").Number(stream_drivers);
  w.Key("arrivals_per_sec").Number(stream_rate);
  w.Key("batch_interval_s").Number(60);
  w.Key("results").BeginArray();
  for (const StreamRecord& r : stream_records) {
    w.BeginObject();
    w.Key("mode").String(r.mode);
    w.Key("orders").Number(r.orders);
    w.Key("input_bytes").Number(r.input_bytes);
    w.Key("startup_ms").Number(r.startup_ms);
    w.Key("drain_orders_per_sec").Number(r.drain_orders_per_sec);
    w.Key("wall_seconds").Number(r.wall_seconds);
    w.Key("peak_rss_kb").Number(r.peak_rss_kb);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  json << "\n";
  if (!json) {
    std::fprintf(stderr, "ERROR: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace mrvd

int main() { return mrvd::Main(); }
