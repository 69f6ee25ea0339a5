// The experiment API's front door: a fluent, validated builder that
// assembles everything a run needs — workload, grid, travel model, demand
// forecast, scenario script, SimConfig — with sane defaults derived from
// the workload, so a complete simulation is a handful of lines:
//
//   GeneratorConfig city;
//   city.orders_per_day = 20000;
//   auto sim = SimulationBuilder()
//                  .GenerateNycDay(/*day_index=*/7, /*num_drivers=*/250, city)
//                  .WithOracleForecast()
//                  .Build();
//   if (!sim.ok()) return Fail(sim.status());
//   StatusOr<SimResult> result = sim->Run("LS");
//
// Build() validates (SimConfig::Validate, straight-line travel parameters,
// forecast/grid region match, missing workload) and returns Status instead
// of crashing later; the built Simulation owns (or borrows) its pieces and
// can run any dispatcher from the DispatcherRegistry by spec string.
// Simulator::Run remains the thin engine underneath — the Simulation just
// assembles its arguments.
#pragma once

#include <memory>
#include <string>

#include "geo/grid.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "scenario/script.h"
#include "sim/engine.h"
#include "util/status.h"
#include "workload/generator.h"

namespace mrvd {

/// A fully assembled, runnable experiment environment. Copyable (shared
/// ownership of the assembled pieces) and cheap to pass around; every Run
/// constructs a fresh Simulator, so runs are independent and repeatable.
class Simulation {
 public:
  /// On the streaming path the workload holds the trace's drivers and
  /// horizon with an EMPTY orders vector — orders never materialise.
  const Workload& workload() const { return *workload_; }
  const Grid& grid() const { return *grid_; }
  const TravelCostModel& travel_model() const { return *travel_; }
  const SimConfig& config() const { return config_; }
  /// Null when the simulation is prediction-free.
  const DemandForecast* forecast() const { return forecast_; }
  /// Null when no scenario script is attached.
  const ScenarioScript* scenario() const { return scenario_; }
  /// The generator behind GenerateNycDay(), or null for external workloads.
  const NycLikeGenerator* generator() const { return generator_.get(); }

  /// Runs one dispatcher built from a DispatcherRegistry spec ("IRG",
  /// "LS:max_sweeps=8", ...) under this simulation's config and scenario:
  /// the result of RunOne(*this, RunSpec(dispatcher_spec)), so unknown
  /// names fail with a Status listing the known roster, and dispatchers
  /// marked requires_zero_pickup_travel (UPPER) run with
  /// SimConfig::zero_pickup_travel set.
  StatusOr<SimResult> Run(const std::string& dispatcher_spec,
                          SimObserver* observer = nullptr) const;

  /// The single-run engine path under an explicit, already trait-applied
  /// config — what RunOne (and so Run above) bottoms out in; it also runs
  /// a caller-constructed dispatcher. An invalid config fails with
  /// InvalidArgument before any batch runs. A streamed simulation opens a
  /// fresh OrderStreamReader per call (runs stay independent, so sweeps
  /// parallelise), and stream open/read failures surface as the Status.
  StatusOr<SimResult> RunWith(const SimConfig& config, Dispatcher& dispatcher,
                              const ScenarioScript* scenario,
                              SimObserver* observer = nullptr) const;

  /// True when orders stream from a binary trace instead of memory.
  bool streaming() const { return !stream_path_.empty(); }
  /// The trace path behind a streaming simulation ("" otherwise).
  const std::string& stream_path() const { return stream_path_; }

  /// A copy of this simulation with `script` attached (shared ownership),
  /// replacing any existing script. The campaign layer uses this to pair
  /// one built workload with each scenario of a grid without re-running
  /// the generator or re-deriving the forecast.
  Simulation WithScenario(ScenarioScript script) const;

 private:
  friend class SimulationBuilder;
  Simulation() = default;

  std::shared_ptr<const NycLikeGenerator> generator_;
  std::shared_ptr<const Workload> owned_workload_;
  const Workload* workload_ = nullptr;  ///< always set after Build()
  std::shared_ptr<const Grid> grid_;
  std::shared_ptr<const TravelCostModel> travel_;  ///< always set after Build()
  std::shared_ptr<const DemandForecast> owned_forecast_;
  const DemandForecast* forecast_ = nullptr;  ///< may stay null
  std::shared_ptr<const ScenarioScript> owned_scenario_;
  const ScenarioScript* scenario_ = nullptr;  ///< may stay null
  SimConfig config_;
  std::string stream_path_;        ///< non-empty: stream orders from here
  int64_t stream_max_orders_ = 0;  ///< > 0: cap the streamed order count
};

/// Fluent builder for Simulation. All setters return *this; Build() may be
/// called repeatedly (the builder stays valid, so sweeps can tweak the
/// config between builds). Exactly one workload source must be set.
class SimulationBuilder {
 public:
  SimulationBuilder() = default;

  // ---- Workload sources (exactly one) ----

  /// Generates a synthetic NYC-like day (the paper's §6.1 substitute
  /// workload): `config` controls grid and demand shape, the generator and
  /// its grid are owned by the built Simulation.
  SimulationBuilder& GenerateNycDay(int day_index, int num_drivers,
                                    const GeneratorConfig& config = {});

  /// Takes ownership of an externally built workload (e.g. a parsed TLC
  /// day) over `grid`.
  SimulationBuilder& WithWorkload(Workload workload, const Grid& grid);

  /// Borrows a workload owned by the caller, which must outlive every
  /// Simulation built from this builder.
  SimulationBuilder& BorrowWorkload(const Workload& workload, const Grid& grid);

  /// Streams orders from a binary trace (see workload/order_stream.h)
  /// instead of materialising them: Build() reads only the trace's header
  /// and driver section, and every Run pulls arrivals through a fresh
  /// buffered reader with O(batch) peak memory — bit-identical to
  /// materialising the same trace. `max_orders` > 0 caps the streamed
  /// count. Incompatible with WithOracleForecast() (the oracle needs the
  /// realized orders in memory; derive a forecast offline and pass
  /// WithForecast() instead).
  SimulationBuilder& StreamTrace(const std::string& trace_path,
                                 const Grid& grid, int64_t max_orders = 0);

  // ---- Travel model (default: straight-line at 11 m/s, 1.3 detour) ----

  /// Owns a straight-line model with the given speed/detour factor.
  /// Build() rejects a speed that is not positive and finite and a detour
  /// that is not finite and >= 1.
  SimulationBuilder& WithStraightLineTravel(double speed_mps,
                                            double detour_factor);

  // ---- Demand forecast (default: none — prediction-free dispatch) ----

  /// Borrows a caller-owned forecast (must match the grid's region count).
  SimulationBuilder& WithForecast(const DemandForecast& forecast);

  /// Takes ownership of a forecast.
  SimulationBuilder& WithForecast(DemandForecast&& forecast);

  /// Derives the ground-truth oracle forecast from the workload's realized
  /// per-slot counts at Build() time (Table 4's "Real" predictor). Works
  /// for any workload source.
  SimulationBuilder& WithOracleForecast(int slots_per_day = 48);

  // ---- Scenario script (default: none) ----

  /// Takes ownership of a scenario script (driver shifts, cancellations,
  /// surge windows) merged into every run.
  SimulationBuilder& WithScenario(ScenarioScript script);

  // ---- Engine config (default: the paper's Table-2 values) ----

  SimulationBuilder& WithConfig(const SimConfig& config);
  SimulationBuilder& BatchInterval(double seconds);
  SimulationBuilder& HorizonSeconds(double seconds);

  /// Attaches a borrowed telemetry session (may be null to detach): runs
  /// record per-stage trace spans when it traces and merge their metrics
  /// registries into the session's when they end.
  /// The session must outlive every Simulation built from this builder and
  /// must not be shared by concurrently executing runs. Telemetry never
  /// affects results — only observes them.
  SimulationBuilder& WithTelemetry(telemetry::TelemetrySession* session);

  const SimConfig& config() const { return config_; }

  /// Validates and assembles. Fails with InvalidArgument when no workload
  /// source was set, a GenerateNycDay() config's gravity_scale_cells is not
  /// positive (the generator cannot draw local destinations then), the
  /// config does not pass SimConfig::Validate(), the straight-line travel
  /// parameters are out of range, or a forecast's region count does not
  /// match the grid.
  StatusOr<Simulation> Build() const;

 private:
  std::shared_ptr<const NycLikeGenerator> generator_;
  std::shared_ptr<const Workload> owned_workload_;
  const Workload* borrowed_workload_ = nullptr;
  std::shared_ptr<const Grid> grid_;
  double line_speed_mps_ = 11.0;  ///< the straight-line model's parameters
  double line_detour_ = 1.3;
  const DemandForecast* borrowed_forecast_ = nullptr;
  std::shared_ptr<const DemandForecast> owned_forecast_;
  int oracle_slots_ = 0;  ///< > 0: derive the oracle forecast at Build()
  std::shared_ptr<const ScenarioScript> owned_scenario_;
  SimConfig config_;
  std::string stream_path_;
  int64_t stream_max_orders_ = 0;
};

}  // namespace mrvd
