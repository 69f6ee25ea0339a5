#include "campaign/workload_catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "geo/grid.h"
#include "prediction/forecast.h"
#include "prediction/predictor.h"
#include "scenario/generator.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/generator.h"
#include "workload/order_stream.h"
#include "workload/tlc_parser.h"

namespace mrvd {

// ---------------------------------------------------------------------
// Built-in workloads

namespace {

/// The `paper` entry's evaluation day follows this many generated training
/// days (21, as in the paper's Appendix-B setup) and is day 21 itself.
constexpr int kPaperTrainDays = 21;

/// The paper's demand predictors by name (Tables 4 and 6); null when the
/// name is none of kPaperPredictors.
std::unique_ptr<DemandPredictor> MakePaperPredictor(const std::string& name) {
  if (name == "HA") return MakeHistoricalAveragePredictor();
  if (name == "LR") return MakeLinearRegressionPredictor();
  if (name == "GBRT") return MakeGbrtPredictor();
  if (name == "DeepST") return MakeDeepStSurrogatePredictor();
  if (name == "Real") return MakeOraclePredictor();
  return nullptr;
}
constexpr char kPaperPredictors[] = "HA, LR, GBRT, DeepST, Real";

constexpr int64_t kIntMin = std::numeric_limits<int>::min();
constexpr int64_t kIntMax = std::numeric_limits<int>::max();

Status CheckPaperParams(const CatalogParams& p) {
  const double scale = p.GetDouble("scale");
  if (!(scale > 0.0 && scale <= 1.0)) {
    return Status::InvalidArgument("scale must be in (0, 1], got " +
                                   FormatDouble(scale));
  }
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "drivers", 1, kIntMax));
  const double tau = p.GetDouble("tau");
  if (!(tau >= 0.0) || !std::isfinite(tau)) {
    return Status::InvalidArgument("tau must be finite and >= 0, got " +
                                   FormatDouble(tau));
  }
  const std::string& predictor = p.GetString("predictor");
  if (MakePaperPredictor(predictor) == nullptr) {
    return Status::InvalidArgument("unknown predictor '" + predictor +
                                   "'; known predictors: " + kPaperPredictors);
  }
  return Status::OK();
}

/// The check of the generated-day entries (nyc, nyc-skew): every value
/// the factory narrows to int fits, the fleet and the order count are not
/// negative, and the grid has from 1 to INT_MAX cells.
Status CheckGeneratedDay(const CatalogParams& p) {
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "day", kIntMin, kIntMax));
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "drivers", 0, kIntMax));
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "orders", 0, kIntMax));
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "grid_rows", 1, kIntMax));
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "grid_cols", 1, kIntMax));
  const int64_t cells = p.GetInt("grid_rows") * p.GetInt("grid_cols");
  if (cells > kIntMax) {
    return Status::InvalidArgument(
        "grid_rows x grid_cols must be at most " + std::to_string(kIntMax) +
        ", got " + std::to_string(cells));
  }
  return Status::OK();
}

/// The hot rows must lie in the grid, in order: the factory clamps them
/// there, so any other pair would build a clamped pair's day under a cell
/// key of its own.
Status CheckSkewedDay(const CatalogParams& p) {
  MRVD_RETURN_NOT_OK(CheckGeneratedDay(p));
  const int64_t last_row = p.GetInt("grid_rows") - 1;
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "row_lo", 0, last_row));
  return CheckIntParam(p, "row_hi", p.GetInt("row_lo"), last_row);
}

/// The check of an entry that reads a file: `path` is required, since
/// the canonical spec, and so every campaign cell key, names the file.
Status RequirePath(const CatalogParams& p, const std::string& how) {
  if (!p.GetString("path").empty()) return Status::OK();
  return Status::InvalidArgument("path is required: " + how);
}

/// `day` is -1 (every day) or a day index: the parser keeps every day for
/// any negative filter, so -2 would repeat -1's day under its own key.
Status CheckTlcParams(const CatalogParams& p) {
  MRVD_RETURN_NOT_OK(RequirePath(p, "pass path=/path/to/trips.csv"));
  MRVD_RETURN_NOT_OK(CheckIntParam(p, "drivers", 0, kIntMax));
  return CheckIntParam(p, "day", -1, kIntMax);
}

/// The paper's §6 evaluation day: the NYC day at `scale` of the paper's
/// volume, with the named predictor's forecast for it.
StatusOr<Simulation> BuildPaperDay(const CatalogParams& p) {
  const double scale = p.GetDouble("scale");
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 282255.0 * scale;
  gcfg.base_pickup_wait = p.GetDouble("tau");
  gcfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
  // Scale the city area with the order volume (linear dims by sqrt(scale))
  // so spatial density — and with it the queueing regimes and pickup
  // feasibility — matches the paper at every scale.
  if (scale < 1.0) {
    double shrink = std::sqrt(scale);
    LatLon c = gcfg.box.Center();
    double half_w = gcfg.box.WidthDegrees() * 0.5 * shrink;
    double half_h = gcfg.box.HeightDegrees() * 0.5 * shrink;
    gcfg.box = {c.lon - half_w, c.lon + half_w, c.lat - half_h, c.lat + half_h};
  }
  // Trip durations shrink with the city's linear dimension (sqrt(scale)),
  // so preserving the paper's demand-to-capacity ratio requires drivers to
  // scale as scale^1.5, not scale.
  const int drivers = std::max(
      1, static_cast<int>(static_cast<double>(p.GetInt("drivers")) * scale *
                          std::sqrt(scale)));

  // ~40 km/h cruising with a 1.3 street-detour factor (NYC TLC reports
  // city-wide averages of 20-40 km/h depending on borough and hour).
  SimulationBuilder builder;
  builder.GenerateNycDay(kPaperTrainDays, drivers, gcfg)
      .WithStraightLineTravel(11.0, 1.3);
  StatusOr<Simulation> day = builder.Build();
  if (!day.ok()) return day.status();

  // The predictor trains on the generated history plus the day's realized
  // counts; only the oracle ("Real") reads the day itself.
  DemandHistory observed = day->generator()->ObservedHistory(
      kPaperTrainDays, day->workload(), 48);
  std::unique_ptr<DemandPredictor> predictor =
      MakePaperPredictor(p.GetString("predictor"));
  MRVD_RETURN_NOT_OK(predictor->Train(observed, day->grid()));
  StatusOr<DemandForecast> forecast =
      DemandForecast::Build(*predictor, observed, kPaperTrainDays);
  if (!forecast.ok()) return forecast.status();
  return builder.WithForecast(std::move(forecast).value()).Build();
}

void RegisterBuiltinWorkloads(WorkloadCatalog* c) {
  auto must = [](Status st) {
    if (!st.ok()) {
      MRVD_LOG(Error) << "built-in workload registration failed: " << st;
    }
  };
  using T = CatalogParam::Type;
  must(c->Register(
      "nyc",
      {
          {"day", T::kInt64, "1", "day index (day-of-week = day % 7)"},
          {"drivers", T::kInt64, "40", "fleet size"},
          {"orders", T::kInt64, "3000", "orders per day"},
          {"grid_rows", T::kInt64, "8", "grid rows"},
          {"grid_cols", T::kInt64, "8", "grid columns"},
          {"seed", T::kInt64, "20190417", "generator master seed"},
          {"oracle", T::kInt64, "1",
           "1 = derive the realized-counts oracle forecast"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "30", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "4", "default horizon (hours)"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        GeneratorConfig gcfg;
        gcfg.grid_rows = static_cast<int>(p.GetInt("grid_rows"));
        gcfg.grid_cols = static_cast<int>(p.GetInt("grid_cols"));
        gcfg.orders_per_day = static_cast<double>(p.GetInt("orders"));
        gcfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
        SimulationBuilder builder;
        builder
            .GenerateNycDay(static_cast<int>(p.GetInt("day")),
                            static_cast<int>(p.GetInt("drivers")), gcfg)
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(p.GetDouble("horizon_hours") * 3600.0);
        if (p.GetInt("oracle") != 0) builder.WithOracleForecast();
        return builder.Build();
      },
      CheckGeneratedDay));
  must(c->Register(
      "paper",
      {
          {"scale", T::kDouble, "0.1",
           "fraction of the paper's 282,255 orders/day, in (0, 1]"},
          {"drivers", T::kInt64, "3000",
           "paper-scale fleet size (the day has drivers * scale^1.5)"},
          {"tau", T::kDouble, "120", "base pickup waiting time (s)"},
          {"predictor", T::kString, "DeepST",
           "demand forecast: HA, LR, GBRT, DeepST or Real"},
          {"seed", T::kInt64, "20190417", "generator master seed"},
      },
      BuildPaperDay, CheckPaperParams));
  must(c->Register(
      "nyc-skew",
      {
          {"day", T::kInt64, "1", "day index (day-of-week = day % 7)"},
          {"drivers", T::kInt64, "40", "fleet size"},
          {"orders", T::kInt64, "3000", "orders per day"},
          {"grid_rows", T::kInt64, "16", "grid rows"},
          {"grid_cols", T::kInt64, "16", "grid columns"},
          {"seed", T::kInt64, "20190417", "generator master seed"},
          {"oracle", T::kInt64, "1",
           "1 = derive the realized-counts oracle forecast"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "30", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "4", "default horizon (hours)"},
          {"surge_start_hour", T::kDouble, "0.5", "skew window start (hours)"},
          {"surge_end_hour", T::kDouble, "2.5", "skew window end (hours)"},
          {"share", T::kDouble, "0.7",
           "share of window arrivals relocated into the hot rows"},
          {"row_lo", T::kInt64, "0", "first hot grid row"},
          {"row_hi", T::kInt64, "2", "last hot grid row"},
          {"multiplier", T::kDouble, "2",
           "surge demand multiplier over the hot rows"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        // The nyc day with a rush hour funnelling `share` of the window's
        // arrivals into rows [row_lo, row_hi], plus a row-band surge window
        // over the same rows so the forecast layer sees the concentration
        // too — the skewed-demand stress case for adaptive sharding.
        GeneratorConfig gcfg;
        gcfg.grid_rows = static_cast<int>(p.GetInt("grid_rows"));
        gcfg.grid_cols = static_cast<int>(p.GetInt("grid_cols"));
        gcfg.orders_per_day = static_cast<double>(p.GetInt("orders"));
        gcfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
        NycLikeGenerator generator(gcfg);
        Workload day = generator.GenerateDay(
            static_cast<int>(p.GetInt("day")),
            static_cast<int>(p.GetInt("drivers")));
        const double start = p.GetDouble("surge_start_hour") * 3600.0;
        const double end = p.GetDouble("surge_end_hour") * 3600.0;
        const int row_lo = static_cast<int>(p.GetInt("row_lo"));
        const int row_hi = static_cast<int>(p.GetInt("row_hi"));
        Workload skewed = SkewWorkloadRows(day, generator.grid(), start, end,
                                           p.GetDouble("share"), row_lo,
                                           row_hi, gcfg.seed ^ 0x5EEDULL);
        ScenarioDayConfig scfg;
        scfg.surges.push_back(RowBandSurge(generator.grid(), row_lo, row_hi,
                                           start, end,
                                           p.GetDouble("multiplier")));
        ScenarioScript script = BuildScenarioDay(skewed, scfg);
        SimulationBuilder builder;
        builder.WithWorkload(std::move(skewed), generator.grid())
            .WithScenario(std::move(script))
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(p.GetDouble("horizon_hours") * 3600.0);
        if (p.GetInt("oracle") != 0) builder.WithOracleForecast();
        return builder.Build();
      },
      CheckSkewedDay));
  must(c->Register(
      "tlc",
      {
          {"path", T::kString, "", "trip CSV path (required)"},
          {"drivers", T::kInt64, "3000", "fleet size"},
          {"day", T::kInt64, "-1", "day filter (-1 = keep all)"},
          {"max_orders", T::kInt64, "0", "order cap (0 = unlimited)"},
          {"seed", T::kInt64, "20190417", "deadline-noise seed"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "3", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "24", "default horizon (hours)"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        TlcParseOptions options;
        options.day_filter = static_cast<int>(p.GetInt("day"));
        options.max_orders = p.GetInt("max_orders");
        options.seed = static_cast<uint64_t>(p.GetInt("seed"));
        StatusOr<Workload> workload = ParseTlcCsv(
            p.GetString("path"), static_cast<int>(p.GetInt("drivers")),
            options);
        if (!workload.ok()) return workload.status();
        SimulationBuilder builder;
        builder
            .WithWorkload(std::move(workload).value(), MakeNycGrid16x16())
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(p.GetDouble("horizon_hours") * 3600.0);
        return builder.Build();
      },
      CheckTlcParams));
  must(c->Register(
      "trace",
      {
          {"path", T::kString, "", "binary order-trace path (required)"},
          {"max_orders", T::kInt64, "0", "order cap (0 = the whole trace)"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "3", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "0",
           "horizon (hours); 0 = the trace header's horizon"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        // The streamed city-scale workload: orders pull straight from the
        // binary trace with O(batch) memory. MRVD_TRACE_MATERIALIZE=1
        // switches the factory to loading the whole trace up front — an
        // env toggle, NOT a spec parameter, so the canonical spec (and
        // therefore every campaign cell key and manifest) is identical
        // either way; CI exploits that to byte-compare the two manifests.
        const std::string& path = p.GetString("path");
        StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(path);
        if (!info.ok()) return info.status();
        const double horizon_hours = p.GetDouble("horizon_hours");
        const double horizon = horizon_hours > 0.0
                                   ? horizon_hours * 3600.0
                                   : info->horizon_seconds;
        const char* materialize = std::getenv("MRVD_TRACE_MATERIALIZE");
        SimulationBuilder builder;
        if (materialize != nullptr && materialize[0] != '\0' &&
            std::string(materialize) != "0") {
          StatusOr<Workload> workload =
              ReadOrderTrace(path, p.GetInt("max_orders"));
          if (!workload.ok()) return workload.status();
          builder.WithWorkload(std::move(workload).value(),
                               MakeNycGrid16x16());
        } else {
          builder.StreamTrace(path, MakeNycGrid16x16(),
                              p.GetInt("max_orders"));
        }
        builder
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(horizon);
        return builder.Build();
      },
      [](const CatalogParams& p) {
        return RequirePath(p,
                           "pass path=/path/to/day.trace (convert CSVs with "
                           "tools/tlc_to_trace)");
      }));
}

// ---------------------------------------------------------------------
// Built-in scenarios (the BuildScenarioDay variants)

void RegisterBuiltinScenarios(ScenarioCatalog* c) {
  auto must = [](Status st) {
    if (!st.ok()) {
      MRVD_LOG(Error) << "built-in scenario registration failed: " << st;
    }
  };
  using T = CatalogParam::Type;
  must(c->Register("none", {},
                   [](const Workload&,
                      const CatalogParams&) -> StatusOr<ScenarioScript> {
                     return ScenarioScript();
                   }));
  must(c->Register(
      "two-shift",
      {
          {"shift_hour", T::kDouble, "12", "shift-change time (hours)"},
          {"overlap_minutes", T::kDouble, "30", "shift overlap (minutes)"},
      },
      [](const Workload& workload,
         const CatalogParams& p) -> StatusOr<ScenarioScript> {
        ScenarioDayConfig cfg;
        cfg.two_shift_fleet = true;
        cfg.shift_change_seconds = p.GetDouble("shift_hour") * 3600.0;
        cfg.shift_overlap_seconds = p.GetDouble("overlap_minutes") * 60.0;
        return BuildScenarioDay(workload, cfg);
      }));
  must(c->Register(
      "cancel-hazard",
      {
          {"probability", T::kDouble, "0.05", "per-order cancel probability"},
          {"fraction_lo", T::kDouble, "0.2",
           "earliest cancel point (fraction of patience window)"},
          {"fraction_hi", T::kDouble, "0.9", "latest cancel point"},
          {"seed", T::kInt64, "20190417", "cancellation-draw seed"},
      },
      [](const Workload& workload,
         const CatalogParams& p) -> StatusOr<ScenarioScript> {
        ScenarioDayConfig cfg;
        cfg.cancel_probability = p.GetDouble("probability");
        cfg.cancel_fraction_lo = p.GetDouble("fraction_lo");
        cfg.cancel_fraction_hi = p.GetDouble("fraction_hi");
        cfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
        return BuildScenarioDay(workload, cfg);
      }));
  must(c->Register(
      "rush-hour",
      {
          {"start_hour", T::kDouble, "7", "surge start (hours)"},
          {"end_hour", T::kDouble, "9", "surge end (hours)"},
          {"multiplier", T::kDouble, "1.5", "demand multiplier"},
      },
      [](const Workload& workload,
         const CatalogParams& p) -> StatusOr<ScenarioScript> {
        ScenarioDayConfig cfg;
        cfg.surges.push_back(RushHourSurge(p.GetDouble("start_hour") * 3600.0,
                                           p.GetDouble("end_hour") * 3600.0,
                                           p.GetDouble("multiplier")));
        return BuildScenarioDay(workload, cfg);
      }));
}

}  // namespace

WorkloadCatalog& WorkloadCatalog::Global() {
  static WorkloadCatalog* catalog = [] {
    // mrvd-lint: allow(naked-new) — deliberately leaked singleton; avoids
    // static-destruction order hazards for late registry lookups
    auto* c = new WorkloadCatalog();
    RegisterBuiltinWorkloads(c);
    return c;
  }();
  return *catalog;
}

StatusOr<Simulation> WorkloadCatalog::Build(const std::string& spec) const {
  StatusOr<Resolved> resolved = Resolve(spec);
  if (!resolved.ok()) return resolved.status();
  return resolved->entry->factory(resolved->params);
}

ScenarioCatalog& ScenarioCatalog::Global() {
  static ScenarioCatalog* catalog = [] {
    // mrvd-lint: allow(naked-new) — deliberately leaked singleton; avoids
    // static-destruction order hazards for late registry lookups
    auto* c = new ScenarioCatalog();
    RegisterBuiltinScenarios(c);
    return c;
  }();
  return *catalog;
}

StatusOr<ScenarioScript> ScenarioCatalog::Build(
    const std::string& spec, const Workload& workload) const {
  StatusOr<Resolved> resolved = Resolve(spec);
  if (!resolved.ok()) return resolved.status();
  return resolved->entry->factory(workload, resolved->params);
}

}  // namespace mrvd
