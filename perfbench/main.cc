// Measurement program of the repository benchmark (README.md in this
// directory explains the workloads and metrics; run.py is the command).
//
//   perfbench chase
//       Times a fixed pointer chase over a buffer larger than L2 (host-drift
//       diagnostic, run in its own process so it never shows in peak RSS).
//   perfbench prepare --workload city_rush --seed N --dir D [--trace]
//       Generates the city_rush day, writes its order trace and demand
//       tensor into D (repeatedly, as the set-up rule below says); prints
//       the step timings and reference-sort samples.
//   perfbench run --workload W --seed N --seconds S --dir D [--trace]
//       Sets the workload up at least three times, then repeats the timed
//       phase for about S seconds, sampling the reference sort (probes.h)
//       around each set-up and between batches. With --trace it sets up
//       once, makes one untraced and one traced pass without sampling and
//       writes the benchmark's spans to D.
//
// Output is one JSON document on stdout of raw measurements; statistics
// and correctness checks live in run.py. The seed reaches only the input
// generators (the city day, the rush skew, the cancellation draws); the
// engine and the dispatchers see the generated inputs alone.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "api/api.h"
#include "campaign/campaign.h"
#include "prediction/forecast.h"
#include "prediction/predictor.h"
#include "probes.h"
#include "scenario/generator.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/order_stream.h"

namespace perfbench {
namespace {

using mrvd::JsonWriter;
using mrvd::Simulation;
using mrvd::SimConfig;
using mrvd::SimResult;
using mrvd::Status;
using mrvd::StatusOr;

constexpr uint64_t kMasterSeed = 20190417;
constexpr int kSlotsPerDay = 48;

/// The seed picks which day of one fixed city is drawn: the generator keeps
/// the master seed, so its hotspot fields stay put and seeds vary only the
/// Poisson draws. (Seeding the generator itself moves the hotspots, and
/// with them a city_rush day's cost, by ±15% from seed to seed.) Days step
/// by a week so every seed draws the same weekday; the master seed draws
/// day 1.
int DayIndexFor(uint64_t seed) {
  return 1 + 7 * static_cast<int>((seed - kMasterSeed) % 4096);
}

// ---- command line ----------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  std::string dir = ".";
  uint64_t seed = kMasterSeed;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (arg == "--trace") {
      o->trace = true;
    } else if (arg == "--workload" && next(&v)) {
      o->workload = v;
    } else if (arg == "--dir" && next(&v)) {
      o->dir = v;
    } else if (arg == "--seed" && next(&v)) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && next(&v)) {
      o->seconds = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return o->seconds > 0.0;
}

// ---- setup steps -----------------------------------------------------------

/// Named setup-step durations of one set-up, in execution order.
using Steps = std::vector<std::pair<std::string, double>>;

/// One set-up: its steps and, in a timed run, reference-sort samples taken
/// just before and just after it (a set-up is a few library calls, so the
/// sort cannot run inside it).
struct Setup {
  Steps steps;
  std::vector<int64_t> sort_ns;
};

/// Reference-sort samples on each side of a timed set-up.
constexpr int kSetupSorts = 5;

void SampleSorts(const Options& o, Setup* setup) {
  if (o.trace) return;
  for (int i = 0; i < kSetupSorts; ++i) {
    setup->sort_ns.push_back(ReferenceSortNs());
  }
}

double TotalSeconds(const std::vector<Setup>& setups) {
  double total = 0.0;
  for (const Setup& setup : setups) {
    for (const auto& step : setup.steps) total += step.second;
  }
  return total;
}

/// A timed run sets up at least three times, and until a second of set-up
/// has been measured, so a set-up of a few milliseconds still reports a
/// median over many. A traced run sets up exactly once.
bool MoreSetups(const Options& o, const std::vector<Setup>& done) {
  constexpr size_t kMinSetups = 3;
  constexpr size_t kMaxSetups = 50;
  const size_t n = done.size();
  if (o.trace) return n == 0;
  return n < kMinSetups || (n < kMaxSetups && TotalSeconds(done) < 1.0);
}

/// Runs `fn` as setup step `name`: timed into `steps`, spanned when tracing.
template <typename Fn>
auto Step(const char* name, Steps* steps, TelemetrySession* session, Fn&& fn) {
  TraceSpan span(session, name, kCategory);
  const int64_t t0 = NowNs();
  auto out = fn();
  steps->emplace_back(name, static_cast<double>(NowNs() - t0) * 1e-9);
  return out;
}

// ---- workloads -------------------------------------------------------------

mrvd::GeneratorConfig CityConfig(double orders_per_day) {
  mrvd::GeneratorConfig g;  // 16x16 NYC grid, τ = 120 s base wait
  g.orders_per_day = orders_per_day;
  g.seed = kMasterSeed;
  return g;
}

// paper_day: the paper's Table-2 default day, LS on one thread.
SimConfig PaperDayConfig() {
  SimConfig c;  // Δ = 3 s, t_c = 20 min, 24 h
  c.num_threads = 1;
  return c;
}

StatusOr<Simulation> SetupPaperDay(uint64_t seed, Steps* steps,
                                   TelemetrySession* session) {
  TraceSpan setup(session, "setup", kCategory);
  const mrvd::NycLikeGenerator gen(CityConfig(282255.0));
  mrvd::Workload day = Step("workload.generate", steps, session, [&] {
    return gen.GenerateDay(DayIndexFor(seed), 3000);
  });
  StatusOr<mrvd::DemandForecast> forecast =
      Step("prediction.forecast", steps, session, [&] {
        return mrvd::DemandForecast::Build(
            *mrvd::MakeOraclePredictor(),
            gen.RealizedCounts(day, kSlotsPerDay), /*eval_day=*/0);
      });
  if (!forecast.ok()) return forecast.status();
  return Step("api.build", steps, session, [&] {
    return mrvd::SimulationBuilder()
        .WithWorkload(std::move(day), gen.grid())
        .WithStraightLineTravel(11.0, 1.3)
        .WithForecast(std::move(forecast).value())
        .WithConfig(PaperDayConfig())
        .Build();
  });
}

// city_rush: the first 12 hours of a 1M-order day with a 07:00-10:00 rush
// into rows 0-2, streamed from a binary trace, LS on one engine thread.
// Twelve hours keep the night, the rush and the late morning while one run
// stays short enough that slow host drift moves ten runs little. At two
// threads the day's ~180k pool wake-ups made its wall time swing by a third
// between runs on a shared 4-vCPU VM, so the parallel engine paths run only
// in the traced pass (README.md, "Workloads").
constexpr double kRushStart = 7 * 3600.0;
constexpr double kRushEnd = 10 * 3600.0;
constexpr int kHotRowLo = 0;
constexpr int kHotRowHi = 2;
constexpr double kRushHorizon = 12 * 3600.0;

SimConfig CityRushConfig() {
  SimConfig c;
  c.batch_interval = 10.0;
  c.horizon_seconds = kRushHorizon;
  c.num_threads = 1;
  return c;
}

/// The traced pass's extra city_rush day: the thread pool, the sharded
/// pipeline, parallel LS and adaptive sharding.
SimConfig CityRushParallelConfig() {
  SimConfig c = CityRushConfig();
  c.num_threads = 2;
  c.adaptive_sharding = true;
  return c;
}

mrvd::ScenarioDayConfig CityRushScenario(const mrvd::Grid& grid) {
  mrvd::ScenarioDayConfig s;
  s.surges.push_back(mrvd::RowBandSurge(grid, kHotRowLo, kHotRowHi,
                                        kRushStart, kRushEnd, 2.0));
  return s;
}

std::string TracePath(const Options& o) { return o.dir + "/city_rush.trace"; }
std::string TensorPath(const Options& o) { return o.dir + "/city_rush.tensor"; }

/// The demand tensor the HA forecast reads: one generated history day, then
/// the realized counts of the rush day. Stored as three int32 dims and the
/// doubles in [day][slot][region] order.
Status WriteTensor(const std::string& path, const mrvd::DemandHistory& h) {
  std::ofstream os(path, std::ios::binary);
  const int32_t dims[3] = {h.num_days(), h.slots_per_day(), h.num_regions()};
  os.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  for (int d = 0; d < h.num_days(); ++d) {
    for (int s = 0; s < h.slots_per_day(); ++s) {
      for (int r = 0; r < h.num_regions(); ++r) {
        const double v = h.at(d, s, r);
        os.write(reinterpret_cast<const char*>(&v), sizeof(v));
      }
    }
  }
  os.close();
  if (!os) return Status::IoError("cannot write " + path);
  return Status::OK();
}

StatusOr<mrvd::DemandHistory> ReadTensor(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  int32_t dims[3] = {0, 0, 0};
  is.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (!is || dims[0] <= 0 || dims[1] <= 0 || dims[2] <= 0 ||
      dims[0] > 64 || dims[1] > 1440 || dims[2] > 65536) {
    return Status::IoError("bad demand tensor " + path);
  }
  mrvd::DemandHistory h(dims[0], dims[1], dims[2]);
  for (int d = 0; d < dims[0]; ++d) {
    for (int s = 0; s < dims[1]; ++s) {
      for (int r = 0; r < dims[2]; ++r) {
        double v = 0.0;
        is.read(reinterpret_cast<char*>(&v), sizeof(v));
        h.set(d, s, r, v);
      }
    }
  }
  if (!is) return Status::IoError("truncated demand tensor " + path);
  return h;
}

/// Trace preparation, in its own process so the streamed run's peak RSS
/// never includes the materialised day.
Status PrepareCityRush(const Options& o, Steps* steps, TelemetrySession* session) {
  TraceSpan setup(session, "setup.prepare", kCategory);
  const mrvd::NycLikeGenerator gen(CityConfig(1'000'000.0));
  mrvd::Workload day = Step("workload.generate", steps, session, [&] {
    return gen.GenerateDay(DayIndexFor(o.seed), 8000);
  });
  mrvd::Workload rush = Step("workload.skew", steps, session, [&] {
    mrvd::Workload w =
        mrvd::SkewWorkloadRows(day, gen.grid(), kRushStart, kRushEnd, 0.7,
                               kHotRowLo, kHotRowHi, o.seed ^ 0x5EEDULL);
    std::erase_if(w.orders, [](const mrvd::Order& order) {
      return order.request_time >= kRushHorizon;
    });
    w.horizon_seconds = kRushHorizon;
    return w;
  });
  day = mrvd::Workload();
  Status st = Step("workload.trace_write", steps, session,
                   [&] { return mrvd::WriteOrderTrace(TracePath(o), rush); });
  if (!st.ok()) return st;
  return Step("prediction.history", steps, session, [&] {
    mrvd::DemandHistory observed(2, kSlotsPerDay, gen.grid().num_regions());
    const mrvd::DemandHistory past = gen.GenerateHistory(1, kSlotsPerDay);
    const mrvd::DemandHistory realized =
        gen.RealizedCounts(rush, kSlotsPerDay);
    for (int s = 0; s < kSlotsPerDay; ++s) {
      for (int r = 0; r < observed.num_regions(); ++r) {
        observed.set(0, s, r, past.at(0, s, r));
        observed.set(1, s, r, realized.at(0, s, r));
      }
    }
    return WriteTensor(TensorPath(o), observed);
  });
}

StatusOr<Simulation> SetupCityRush(const Options& o, Steps* steps,
                                   TelemetrySession* session) {
  TraceSpan setup(session, "setup", kCategory);
  StatusOr<mrvd::DemandForecast> forecast =
      Step("prediction.forecast", steps, session,
           [&]() -> StatusOr<mrvd::DemandForecast> {
             StatusOr<mrvd::DemandHistory> observed = ReadTensor(TensorPath(o));
             if (!observed.ok()) return observed.status();
             return mrvd::DemandForecast::Build(
                 *mrvd::MakeHistoricalAveragePredictor(), *observed,
                 /*eval_day=*/1);
           });
  if (!forecast.ok()) return forecast.status();
  StatusOr<Simulation> sim = Step("api.build", steps, session, [&] {
    return mrvd::SimulationBuilder()
        .StreamTrace(TracePath(o), mrvd::MakeNycGrid16x16())
        .WithStraightLineTravel(11.0, 1.3)
        .WithForecast(std::move(forecast).value())
        .WithConfig(CityRushConfig())
        .Build();
  });
  if (!sim.ok()) return sim;
  return Step("scenario.build", steps, session, [&] {
    return sim->WithScenario(mrvd::BuildScenarioDay(
        sim->workload(), CityRushScenario(sim->grid())));
  });
}

// paper_grid: the §6 roster x three scenarios on a 10%-scale paper day,
// run by CampaignRunner on two runner threads, then resumed.
const std::vector<std::string>& Roster() {
  static const std::vector<std::string> roster = {
      "RAND", "NEAR", "LTG", "POLAR", "IRG", "SHORT", "LS", "UPPER"};
  return roster;
}

/// Where the grid cells' clocks put their batch times.
BatchSink& GridBatches() {
  static BatchSink sink;
  return sink;
}

/// Registers "<NAME>.clocked" for each roster dispatcher: the registry's
/// NAME with its defaults inside a ClockedDispatcher. The grid runs these,
/// so its cells time their batches while CampaignRunner runs them.
Status RegisterClockedRoster() {
  mrvd::DispatcherRegistry& registry = mrvd::DispatcherRegistry::Global();
  for (const std::string& name : Roster()) {
    Status st = registry.Register(
        name + ".clocked", {},
        [name](const mrvd::DispatcherParams&)
            -> std::unique_ptr<mrvd::Dispatcher> {
          StatusOr<std::unique_ptr<mrvd::Dispatcher>> inner =
              mrvd::DispatcherRegistry::Global().Create(name);
          if (!inner.ok()) return nullptr;
          return std::make_unique<ClockedDispatcher>(std::move(inner).value(),
                                                     &GridBatches());
        },
        registry.RequiresZeroPickupTravel(name));
    if (!st.ok()) return st;
  }
  return Status::OK();
}

mrvd::CampaignSpec GridSpec(uint64_t seed) {
  mrvd::CampaignSpec spec;
  spec.name = "paper_grid";
  spec.workloads = {
      "nyc:orders=28226,drivers=95,grid_rows=16,grid_cols=16,"
      "batch_interval=3,horizon_hours=24,seed=" +
      std::to_string(kMasterSeed) + ",day=" +
      std::to_string(DayIndexFor(seed))};
  spec.scenarios = {"none",
                    "cancel-hazard:probability=0.2,seed=" +
                        std::to_string(seed),
                    "two-shift"};
  for (const std::string& name : Roster()) {
    spec.dispatchers.push_back(name + ".clocked");
  }
  return spec;
}

/// The grid's inputs, built once outside the campaign: one Simulation per
/// scenario (what the traced replay runs), after validating the grid.
struct GridInputs {
  std::vector<mrvd::CampaignCell> cells;
  std::vector<Simulation> by_scenario;
};

StatusOr<GridInputs> SetupPaperGrid(uint64_t seed, Steps* steps,
                                    TelemetrySession* session) {
  TraceSpan setup(session, "setup", kCategory);
  const mrvd::CampaignSpec spec = GridSpec(seed);
  GridInputs in;
  StatusOr<std::vector<mrvd::CampaignCell>> cells = Step(
      "campaign.expand", steps, session, [&] { return mrvd::ExpandGrid(spec); });
  if (!cells.ok()) return cells.status();
  in.cells = std::move(cells).value();
  StatusOr<Simulation> base = Step("workload.catalog_build", steps, session, [&] {
    return mrvd::WorkloadCatalog::Global().Build(spec.workloads[0]);
  });
  if (!base.ok()) return base.status();
  Status st = Step("scenario.build", steps, session, [&]() -> Status {
    for (const std::string& s : spec.scenarios) {
      StatusOr<mrvd::ScenarioScript> script =
          mrvd::ScenarioCatalog::Global().Build(s, base->workload());
      if (!script.ok()) return script.status();
      in.by_scenario.push_back(base->WithScenario(std::move(script).value()));
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  return in;
}

// ---- result records --------------------------------------------------------

std::string RevenueBits(double revenue) {
  uint64_t bits = 0;
  std::memcpy(&bits, &revenue, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

/// The deterministic aggregates of one simulated day — what the stored
/// reference and the traced-vs-untraced check compare.
void WriteAggregates(JsonWriter& w, const SimResult& r) {
  w.BeginObject();
  w.Key("served").Number(r.served_orders);
  w.Key("reneged").Number(r.reneged_orders);
  w.Key("cancelled").Number(r.cancelled_orders);
  w.Key("total").Number(r.total_orders);
  w.Key("batches").Number(r.num_batches);
  w.Key("revenue_bits").String(RevenueBits(r.total_revenue));
  w.Key("ls_sweeps").Number(r.dispatch_sweeps);
  w.Key("ls_swaps").Number(r.dispatch_swaps_applied);
  w.Key("ls_proposals").Number(r.dispatch_proposals);
  w.Key("sign_ons").Number(r.driver_sign_ons);
  w.Key("sign_offs").Number(r.driver_sign_offs);
  w.Key("surge_changes").Number(r.surge_changes);
  w.EndObject();
}

template <typename Range>
void WriteSeries(JsonWriter& w, const char* key, const Range& values) {
  w.Key(key).BeginArray();
  for (auto v : values) w.Number(v);
  w.EndArray();
}

void WriteSetups(JsonWriter& w, const std::vector<Setup>& setups) {
  w.Key("setups").BeginArray();
  for (const Setup& setup : setups) {
    w.BeginObject();
    w.Key("steps").BeginObject();
    for (const auto& [name, seconds] : setup.steps) w.Key(name).Number(seconds);
    w.EndObject();
    WriteSeries(w, "sort_ns", setup.sort_ns);
    w.EndObject();
  }
  w.EndArray();
}

/// Execution diagnostics of one day that the layer metrics read from
/// SimResult (not compared: they describe how the run executed).
void WriteExecution(JsonWriter& w, const SimResult& r) {
  w.BeginObject();
  w.Key("repartitions").Number(r.repartitions);
  w.Key("ls_recomputed").Number(r.dispatch_proposals_recomputed);
  w.Key("shard_size_imbalance").Number(r.shard_size_imbalance.mean());
  w.Key("shard_time_imbalance").Number(r.shard_time_imbalance.mean());
  w.EndObject();
}

void WriteDay(JsonWriter& w, const SimResult& r) {
  w.Key("aggregates");
  WriteAggregates(w, r);
  w.Key("execution");
  WriteExecution(w, r);
}

// ---- single-simulation workloads (paper_day, city_rush) --------------------

/// One timed day: the clock observer only, tracing off. `sample`: whether
/// the clock samples the reference sort (not in the traced pass's baseline,
/// which the traced day is compared with).
Status TimedDay(const Simulation& sim, bool sample, JsonWriter& w) {
  StatusOr<std::unique_ptr<mrvd::Dispatcher>> ls =
      mrvd::DispatcherRegistry::Global().Create("LS");
  if (!ls.ok()) return ls.status();
  std::vector<int64_t> batch_ns;
  std::vector<int64_t> sort_ns;
  batch_ns.reserve(static_cast<size_t>(
      sim.config().horizon_seconds / sim.config().batch_interval + 2));
  BatchClock clock(&batch_ns, sample ? &sort_ns : nullptr);
  const int64_t t0 = NowNs();
  clock.Start();
  StatusOr<SimResult> r =
      sim.RunWith(sim.config(), **ls, sim.scenario(), &clock);
  const double wall_s =
      static_cast<double>(NowNs() - t0 - clock.sampling_ns()) * 1e-9;
  if (!r.ok()) return r.status();
  w.BeginObject();
  w.Key("wall_s").Number(wall_s);
  w.Key("orders").Number(r->total_orders);
  WriteSeries(w, "batch_ns", batch_ns);
  WriteSeries(w, "sort_ns", sort_ns);
  w.Key("aggregates");
  WriteAggregates(w, *r);
  w.EndObject();
  return Status::OK();
}

/// One traced day: probed dispatcher, traced observer, spans. `batches` is
/// how many batch spans to open (0: none).
StatusOr<SimResult> TracedDay(const Simulation& sim, const SimConfig& config,
                              const std::string& dispatcher_spec,
                              int64_t batches, TelemetrySession* session,
                              LayerStats* stats) {
  StatusOr<std::unique_ptr<mrvd::Dispatcher>> inner =
      mrvd::DispatcherRegistry::Global().Create(dispatcher_spec);
  if (!inner.ok()) return inner.status();
  ProbedDispatcher probed(inner->get(), session, stats);
  TracedObserver observer(session, stats, batches);
  TraceSpan run(session, "run", kCategory);
  observer.Start();
  return sim.RunWith(config, probed, sim.scenario(), &observer);
}

/// The day again on two engine threads with adaptive sharding, untraced:
/// where the shard and parallel-LS diagnostics come from.
Status ParallelDay(const Simulation& sim, TelemetrySession* session,
                   JsonWriter& w) {
  StatusOr<std::unique_ptr<mrvd::Dispatcher>> ls =
      mrvd::DispatcherRegistry::Global().Create("LS");
  if (!ls.ok()) return ls.status();
  TraceSpan span(session, "run.parallel", kCategory);
  StatusOr<SimResult> r =
      sim.RunWith(CityRushParallelConfig(), **ls, sim.scenario(), nullptr);
  if (!r.ok()) return r.status();
  w.Key("parallel").BeginObject();
  WriteDay(w, *r);
  w.EndObject();
  return Status::OK();
}

void WriteLayerStats(JsonWriter& w, const LayerStats& s) {
  w.BeginObject();
  w.Key("batches").Number(s.batches);
  WriteSeries(w, "riders_per_batch", s.riders_per_batch);
  WriteSeries(w, "drivers_per_batch", s.drivers_per_batch);
  WriteSeries(w, "dispatch_ms", s.dispatch_ms);
  w.Key("release_s").Number(s.release_s);
  w.Key("inject_s").Number(s.inject_s);
  w.Key("scenario_s").Number(s.scenario_s);
  w.Key("expire_s").Number(s.expire_s);
  w.Key("build_s").Number(s.build_s);
  w.Key("apply_s").Number(s.apply_s);
  w.Key("untimed_s").Number(s.untimed_s);
  w.Key("assignments_applied").Number(s.assignments_applied);
  w.Key("assignments_returned").Number(s.assignments_returned);
  w.Key("reneged_hooks").Number(s.reneged_hooks);
  w.Key("never_dispatched").Number(s.never_dispatched);
  w.Key("candidate_gen_s").Number(s.candidate_gen_s);
  w.Key("candidate_pairs").Number(s.candidate_pairs);
  w.Key("greedy_s").Number(s.greedy_s);
  w.Key("ls_refine_s").Number(s.ls_refine_s);
  w.Key("et_solves").Number(s.et_solves);
  w.Key("et_solve_s").Number(s.et_solve_s);
  w.EndObject();
}

/// Drains the trace alone through OrderStreamReader (no engine).
Status DrainTrace(const std::string& path, TelemetrySession* session,
                  JsonWriter& w) {
  TraceSpan span(session, "workload.stream_drain", kCategory);
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<mrvd::OrderStreamReader>> reader =
      mrvd::OrderStreamReader::Open(path);
  if (!reader.ok()) return reader.status();
  int64_t orders = 0;
  while ((*reader)->Peek() != nullptr) {
    ++orders;
    (*reader)->Pop();
  }
  if (!(*reader)->status().ok()) return (*reader)->status();
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  w.Key("stream").BeginObject();
  w.Key("orders").Number(orders);
  w.Key("seconds").Number(seconds);
  w.EndObject();
  return Status::OK();
}

// ---- paper_grid ------------------------------------------------------------

/// Runs the grid from nothing into a fresh directory, then resumes it with
/// every artifact present. Writes one record with per-cell results, the
/// batch times of every cell and, unless tracing, the reference-sort
/// samples the cells took.
Status TimedGrid(const Options& o, const GridInputs& in,
                 TelemetrySession* session, JsonWriter& w) {
  const std::string dir = o.dir + "/paper_grid";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  mrvd::CampaignRunner runner(GridSpec(o.seed), dir);
  mrvd::CampaignOptions options;
  options.num_threads = 2;
  const SimConfig& day = in.by_scenario.front().config();
  BatchSink& sink = GridBatches();
  sink.batch_ns.Reset(in.cells.size() *
                      static_cast<size_t>(day.horizon_seconds /
                                          day.batch_interval));
  // Room for one sample per period of every cell, far more than a grid
  // of this size takes.
  sink.sort_ns.Reset(in.cells.size() * 1024);
  sink.sampling_ns.store(0, std::memory_order_relaxed);
  sink.sample = !o.trace;

  const int64_t t0 = NowNs();
  std::optional<TraceSpan> span(std::in_place, session, "campaign.run",
                                kCategory);
  StatusOr<mrvd::CampaignReport> report = runner.Run(options);
  span.reset();
  const int64_t t1 = NowNs();
  span.emplace(session, "campaign.resume", kCategory);
  StatusOr<mrvd::CampaignReport> resumed = runner.Resume(options);
  span.reset();
  const int64_t t2 = NowNs();
  if (!report.ok()) return report.status();
  if (!resumed.ok()) return resumed.status();

  int64_t artifact_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      artifact_bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  int64_t orders = 0;
  for (const mrvd::CellOutcome& c : report->cells) {
    orders += c.artifact.total_orders;
  }
  // Each runner thread spent about its share of the cells' sampling time.
  const int64_t sampling_ns =
      sink.sampling_ns.load(std::memory_order_relaxed) / options.num_threads;
  w.BeginObject();
  w.Key("wall_s").Number(static_cast<double>(t2 - t0 - sampling_ns) * 1e-9);
  w.Key("run_s").Number(static_cast<double>(t1 - t0 - sampling_ns) * 1e-9);
  w.Key("resume_s").Number(static_cast<double>(t2 - t1) * 1e-9);
  w.Key("orders").Number(orders);
  WriteSeries(w, "batch_ns", sink.batch_ns.Values());
  WriteSeries(w, "sort_ns", sink.sort_ns.Values());
  w.Key("executed").Number(report->executed);
  w.Key("failed").Number(report->failed);
  w.Key("resume_loaded").Number(resumed->loaded);
  w.Key("resume_executed").Number(resumed->executed);
  w.Key("resume_failed").Number(resumed->failed);
  w.Key("manifest_identical")
      .Bool(report->manifest_json == resumed->manifest_json);
  w.Key("artifact_bytes").Number(artifact_bytes);
  w.Key("cells").BeginArray();
  for (const mrvd::CellOutcome& c : report->cells) {
    const bool ok = c.source == mrvd::CellOutcome::Source::kExecuted &&
                    c.live.has_value();
    w.BeginObject();
    w.Key("key").String(c.cell.key);
    w.Key("dispatcher").String(c.artifact.dispatcher_name);
    w.Key("scenario").String(c.cell.scenario);
    w.Key("ok").Bool(ok);
    w.Key("error").String(c.error);
    w.Key("wall_s").Number(c.artifact.wall_seconds);
    if (ok) {
      w.Key("aggregates");
      WriteAggregates(w, c.live->result);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Status::OK();
}

/// Replays every grid cell on this thread with the probed dispatcher, the
/// traced observer and a campaign.cell span each (CampaignRunner exposes no
/// per-cell hook, so the campaign's own run carries no cell spans). The
/// grid makes ~700k batches: the layers are summed, not spanned per batch.
Status ReplayGrid(const GridInputs& in, TelemetrySession* session,
                  LayerStats* stats, JsonWriter& w) {
  TraceSpan replay(session, "campaign.replay", kCategory);
  const mrvd::DispatcherRegistry& registry =
      mrvd::DispatcherRegistry::Global();
  const int64_t t0 = NowNs();
  w.Key("replay").BeginArray();
  for (const mrvd::CampaignCell& cell : in.cells) {
    const Simulation& sim =
        in.by_scenario[static_cast<size_t>(cell.scenario_index)];
    StatusOr<mrvd::ParsedDispatcherSpec> parsed =
        mrvd::DispatcherRegistry::ParseSpec(cell.dispatcher);
    if (!parsed.ok()) return parsed.status();
    SimConfig config = sim.config();
    config.zero_pickup_travel = registry.RequiresZeroPickupTravel(parsed->name);
    TraceSpan span(session, "campaign.cell", kCategory);
    StatusOr<SimResult> r = TracedDay(sim, config, cell.dispatcher, 0,
                                      nullptr, stats);
    if (!r.ok()) return r.status();
    w.BeginObject();
    w.Key("key").String(cell.key);
    WriteDay(w, *r);
    w.EndObject();
  }
  w.EndArray();
  w.Key("replay_s").Number(static_cast<double>(NowNs() - t0) * 1e-9);
  return Status::OK();
}

// ---- modes -----------------------------------------------------------------

/// A random single-cycle permutation over 32 MiB of indices (larger than
/// any L2 this runs on), chased for a fixed number of steps.
int Chase() {
  constexpr size_t kSlots = size_t{1} << 22;  // 4 Mi x 8 B = 32 MiB
  constexpr int64_t kSteps = int64_t{1} << 22;
  std::vector<uint64_t> next(kSlots);
  std::vector<uint64_t> order(kSlots);
  std::iota(order.begin(), order.end(), uint64_t{0});
  mrvd::Rng rng(0xC4A5EULL);
  rng.Shuffle(order);
  for (size_t i = 0; i < kSlots; ++i) {
    next[order[i]] = order[(i + 1) % kSlots];
  }
  uint64_t at = order[0];
  const int64_t t0 = NowNs();
  for (int64_t s = 0; s < kSteps; ++s) at = next[at];
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  std::printf("{\"chase_s\": %.9f, \"steps\": %" PRId64 ", \"end\": %" PRIu64
              "}\n",
              seconds, kSteps, at);
  return 0;
}

/// MRVD_SANITIZE, or a sanitizer the compiler reports in flags given some
/// other way (GCC defines these; UBSan alone leaves no mark).
std::string Sanitizer() {
  std::string s = PERFBENCH_SANITIZER;
#if defined(__SANITIZE_ADDRESS__)
  if (s.empty()) s = "address";
#elif defined(__SANITIZE_THREAD__)
  if (s.empty()) s = "thread";
#endif
  return s;
}

void WriteProvenance(JsonWriter& w) {
  w.Key("provenance").BeginObject();
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("sanitizer").String(Sanitizer());
  w.Key("compiler").String(PERFBENCH_COMPILER);
#ifdef __OPTIMIZE__
  w.Key("optimized").Bool(true);
#else
  w.Key("optimized").Bool(false);
#endif
  w.EndObject();
}

int Fail(const Status& st) {
  std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
  return 1;
}

/// A session for the benchmark's own spans when tracing, else null. It is
/// never attached to the engine, and records synchronously.
std::unique_ptr<TelemetrySession> MakeSession(bool trace) {
  if (!trace) return nullptr;
  mrvd::telemetry::TelemetryConfig config;
  config.async_drain = false;
  return std::make_unique<TelemetrySession>(config);
}

Status WriteTrace(TelemetrySession* session, const std::string& path) {
  session->Finish();
  return session->WriteChromeTrace(path);
}

int Prepare(const Options& o) {
  if (o.workload != "city_rush") {
    return Fail(Status::InvalidArgument("only city_rush needs preparing"));
  }
  std::error_code ec;
  std::filesystem::create_directories(o.dir, ec);
  std::unique_ptr<TelemetrySession> session = MakeSession(o.trace);
  std::vector<Setup> setups;
  while (MoreSetups(o, setups)) {
    Setup setup;
    SampleSorts(o, &setup);
    Status st = PrepareCityRush(o, &setup.steps, session.get());
    if (!st.ok()) return Fail(st);
    SampleSorts(o, &setup);
    setups.push_back(std::move(setup));
  }
  StatusOr<mrvd::OrderTraceInfo> info = mrvd::ReadOrderTraceInfo(TracePath(o));
  if (!info.ok()) return Fail(info.status());
  if (session != nullptr) {
    Status st =
        WriteTrace(session.get(), o.dir + "/city_rush-prepare.trace.json");
    if (!st.ok()) return Fail(st);
  }
  JsonWriter w(std::cout);
  w.BeginObject();
  WriteProvenance(w);
  WriteSetups(w, setups);
  w.Key("trace_bytes").Number(info->file_bytes);
  w.Key("trace_orders").Number(info->order_count);
  w.EndObject();
  std::cout << "\n";
  return 0;
}

int Run(const Options& o) {
  const bool grid = o.workload == "paper_grid";
  if (o.workload != "paper_day" && o.workload != "city_rush" && !grid) {
    return Fail(Status::InvalidArgument("unknown workload '" + o.workload +
                                        "'"));
  }
  std::error_code ec;
  std::filesystem::create_directories(o.dir, ec);
  if (grid) {
    Status st = RegisterClockedRoster();
    if (!st.ok()) return Fail(st);
  }

  std::unique_ptr<TelemetrySession> session = MakeSession(o.trace);
  std::vector<Setup> setups;
  std::optional<Simulation> sim;
  std::optional<GridInputs> grid_inputs;
  while (MoreSetups(o, setups)) {
    Setup setup;
    sim.reset();  // one set-up in memory at a time: it shows in peak RSS
    grid_inputs.reset();
    SampleSorts(o, &setup);
    if (grid) {
      StatusOr<GridInputs> in = SetupPaperGrid(o.seed, &setup.steps,
                                                session.get());
      if (!in.ok()) return Fail(in.status());
      grid_inputs = std::move(in).value();
    } else {
      StatusOr<Simulation> s =
          o.workload == "paper_day"
              ? SetupPaperDay(o.seed, &setup.steps, session.get())
              : SetupCityRush(o, &setup.steps, session.get());
      if (!s.ok()) return Fail(s.status());
      sim = std::move(s).value();
    }
    SampleSorts(o, &setup);
    setups.push_back(std::move(setup));
  }

  // Written as it is measured: nothing accumulates in memory across
  // repetitions, so peak RSS does not depend on how many fit.
  JsonWriter w(std::cout);
  w.BeginObject();
  WriteProvenance(w);
  WriteSetups(w, setups);

  // Timed phase: whole days (or grids) back to back, stopping when one
  // more would end over half of one past `seconds`, so the phase lasts
  // `seconds` give or take half a repetition; in trace mode exactly one,
  // the untraced baseline of the traced pass. The grid's
  // campaign.run/campaign.resume spans wrap two calls, so the traced grid
  // is its own untraced baseline.
  w.Key("reps").BeginArray();
  const int64_t start = NowNs();
  for (;;) {
    const int64_t rep_start = NowNs();
    Status st = grid ? TimedGrid(o, *grid_inputs, session.get(), w)
                     : TimedDay(*sim, !o.trace, w);
    if (!st.ok()) return Fail(st);
    const int64_t now = NowNs();
    if (o.trace || static_cast<double>(now - start) * 1e-9 +
                           0.5 * static_cast<double>(now - rep_start) * 1e-9 >=
                       o.seconds) {
      break;
    }
  }
  w.EndArray();

  if (session != nullptr) {
    LayerStats stats;
    w.Key("traced").BeginObject();
    if (grid) {
      Status st = ReplayGrid(*grid_inputs, session.get(), &stats, w);
      if (!st.ok()) return Fail(st);
    } else {
      // The engine makes one batch per interval over the horizon.
      const auto batches = static_cast<int64_t>(
          sim->config().horizon_seconds / sim->config().batch_interval);
      const int64_t t0 = NowNs();
      StatusOr<SimResult> r = TracedDay(*sim, sim->config(), "LS", batches,
                                        session.get(), &stats);
      const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
      if (!r.ok()) return Fail(r.status());
      w.Key("wall_s").Number(wall_s);
      WriteDay(w, *r);
      if (sim->streaming()) {
        Status st = ParallelDay(*sim, session.get(), w);
        if (st.ok()) st = DrainTrace(sim->stream_path(), session.get(), w);
        if (!st.ok()) return Fail(st);
      }
    }
    w.Key("layers");
    WriteLayerStats(w, stats);
    w.EndObject();
    const std::string trace_path = o.dir + "/" + o.workload + ".trace.json";
    Status st = WriteTrace(session.get(), trace_path);
    if (!st.ok()) return Fail(st);
    w.Key("trace_file").String(trace_path);
  }
  w.EndObject();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench chase | prepare|run --workload W --seed N "
                 "--seconds S --dir D [--trace]\n");
    return 2;
  }
  if (o.mode == "chase") return perfbench::Chase();
  if (o.mode == "prepare") return perfbench::Prepare(o);
  if (o.mode == "run") return perfbench::Run(o);
  std::fprintf(stderr, "perfbench: unknown mode '%s'\n", o.mode.c_str());
  return 2;
}
