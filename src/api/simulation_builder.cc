#include "api/simulation_builder.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "api/dispatcher_registry.h"
#include "prediction/predictor.h"
#include "util/logging.h"
#include "workload/demand_history.h"
#include "workload/order_source.h"
#include "workload/order_stream.h"

namespace mrvd {

// ---------------------------------------------------------------------
// Simulation

SimConfig Simulation::ConfigFor(const std::string& dispatcher_name) const {
  SimConfig cfg = config_;
  if (DispatcherRegistry::Global().RequiresZeroPickupTravel(dispatcher_name)) {
    cfg.zero_pickup_travel = true;
  }
  return cfg;
}

StatusOr<SimResult> Simulation::Run(const std::string& dispatcher_spec,
                                    SimObserver* observer) const {
  StatusOr<std::unique_ptr<Dispatcher>> dispatcher =
      DispatcherRegistry::Global().Create(dispatcher_spec);
  if (!dispatcher.ok()) return dispatcher.status();
  return RunWith(ConfigFor((*dispatcher)->name()), **dispatcher, scenario_,
                 observer);
}

SimResult Simulation::Run(Dispatcher& dispatcher, SimObserver* observer) const {
  StatusOr<SimResult> result =
      RunWith(ConfigFor(dispatcher.name()), dispatcher, scenario_, observer);
  if (!result.ok()) {
    // This overload predates streaming and returns a bare SimResult; an
    // unreadable trace here is an environment failure with no recovery
    // path, on par with the engine's invalid-config abort.
    MRVD_LOG(Error) << "simulation run failed: " << result.status();
    std::abort();
  }
  return std::move(result).value();
}

StatusOr<SimResult> Simulation::RunWith(const SimConfig& config,
                                        Dispatcher& dispatcher,
                                        const ScenarioScript* scenario,
                                        SimObserver* observer) const {
  if (!streaming()) {
    Simulator simulator(config, *workload_, *grid_, *travel_, forecast_);
    return scenario != nullptr
               ? simulator.Run(dispatcher, *scenario, observer)
               : simulator.Run(dispatcher, observer);
  }
  // A fresh reader per run: Simulation is copyable and Run is const, so
  // concurrent sweeps over one streamed simulation must not share a file
  // cursor. The opened reader's drivers are identical to workload_'s (same
  // file; Build() validated it), so the engine uses the shared vector.
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(stream_path_);
  if (!reader.ok()) return reader.status();
  StreamingOrderSource source(std::move(reader).value(), stream_max_orders_);
  Simulator simulator(config, source, workload_->drivers, *grid_, *travel_,
                      forecast_);
  SimResult result = scenario != nullptr
                         ? simulator.Run(dispatcher, *scenario, observer)
                         : simulator.Run(dispatcher, observer);
  // A stream that died mid-run produced a silently truncated day — fail
  // the run rather than hand back misleading aggregates.
  MRVD_RETURN_NOT_OK(source.status());
  return result;
}

Simulation Simulation::WithScenario(ScenarioScript script) const {
  Simulation copy = *this;
  copy.owned_scenario_ =
      std::make_shared<const ScenarioScript>(std::move(script));
  copy.scenario_ = copy.owned_scenario_.get();
  return copy;
}

// ---------------------------------------------------------------------
// SimulationBuilder

SimulationBuilder& SimulationBuilder::GenerateNycDay(
    int day_index, int num_drivers, const GeneratorConfig& config) {
  auto generator = std::make_shared<const NycLikeGenerator>(config);
  owned_workload_ = std::make_shared<const Workload>(
      generator->GenerateDay(day_index, num_drivers));
  grid_ = std::make_shared<const Grid>(generator->grid());
  generator_ = std::move(generator);
  borrowed_workload_ = nullptr;
  stream_path_.clear();
  return *this;
}

SimulationBuilder& SimulationBuilder::WithWorkload(Workload workload,
                                                   const Grid& grid) {
  owned_workload_ = std::make_shared<const Workload>(std::move(workload));
  grid_ = std::make_shared<const Grid>(grid);
  generator_ = nullptr;
  borrowed_workload_ = nullptr;
  stream_path_.clear();
  return *this;
}

SimulationBuilder& SimulationBuilder::BorrowWorkload(const Workload& workload,
                                                     const Grid& grid) {
  borrowed_workload_ = &workload;
  grid_ = std::make_shared<const Grid>(grid);
  generator_ = nullptr;
  owned_workload_ = nullptr;
  stream_path_.clear();
  return *this;
}

SimulationBuilder& SimulationBuilder::StreamTrace(const std::string& trace_path,
                                                  const Grid& grid,
                                                  int64_t max_orders) {
  stream_path_ = trace_path;
  stream_max_orders_ = max_orders;
  grid_ = std::make_shared<const Grid>(grid);
  generator_ = nullptr;
  owned_workload_ = nullptr;
  borrowed_workload_ = nullptr;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithTravelModel(
    const TravelCostModel& model) {
  borrowed_travel_ = &model;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithStraightLineTravel(
    double speed_mps, double detour_factor) {
  line_speed_mps_ = speed_mps;
  line_detour_ = detour_factor;
  borrowed_travel_ = nullptr;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithForecast(
    const DemandForecast& forecast) {
  borrowed_forecast_ = &forecast;
  owned_forecast_ = nullptr;
  oracle_slots_ = 0;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithForecast(DemandForecast&& forecast) {
  owned_forecast_ = std::make_shared<const DemandForecast>(std::move(forecast));
  borrowed_forecast_ = nullptr;
  oracle_slots_ = 0;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithOracleForecast(int slots_per_day) {
  oracle_slots_ = slots_per_day;
  borrowed_forecast_ = nullptr;
  owned_forecast_ = nullptr;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithScenario(ScenarioScript script) {
  owned_scenario_ = std::make_shared<const ScenarioScript>(std::move(script));
  borrowed_scenario_ = nullptr;
  return *this;
}

SimulationBuilder& SimulationBuilder::BorrowScenario(
    const ScenarioScript& script) {
  borrowed_scenario_ = &script;
  owned_scenario_ = nullptr;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithConfig(const SimConfig& config) {
  config_ = config;
  return *this;
}

SimulationBuilder& SimulationBuilder::BatchInterval(double seconds) {
  config_.batch_interval = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::WindowSeconds(double seconds) {
  config_.window_seconds = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::HorizonSeconds(double seconds) {
  config_.horizon_seconds = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::Threads(int num_threads) {
  config_.num_threads = num_threads;
  return *this;
}

SimulationBuilder& SimulationBuilder::Shards(int num_shards) {
  config_.num_shards = num_shards;
  return *this;
}

SimulationBuilder& SimulationBuilder::WithTelemetry(
    telemetry::TelemetrySession* session) {
  config_.telemetry = session;
  return *this;
}

StatusOr<Simulation> SimulationBuilder::Build() const {
  const Workload* workload = borrowed_workload_ != nullptr
                                 ? borrowed_workload_
                                 : owned_workload_.get();
  if (workload == nullptr && stream_path_.empty()) {
    return Status::InvalidArgument(
        "no workload: call GenerateNycDay(), WithWorkload(), "
        "BorrowWorkload() or StreamTrace() before Build()");
  }
  MRVD_RETURN_NOT_OK(config_.Validate());
  if (borrowed_travel_ == nullptr) {
    // The TravelCostModel::SpeedMps contract that candidate generation
    // prunes on: a finite positive speed, and no trip shorter than the
    // crow-fly distance.
    if (!(line_speed_mps_ > 0.0) || !std::isfinite(line_speed_mps_)) {
      return Status::InvalidArgument(
          "straight-line travel speed_mps must be positive and finite, got " +
          std::to_string(line_speed_mps_));
    }
    if (!(line_detour_ >= 1.0) || !std::isfinite(line_detour_)) {
      return Status::InvalidArgument(
          "straight-line travel detour must be finite and >= 1, got " +
          std::to_string(line_detour_));
    }
  }

  Simulation sim;
  sim.generator_ = generator_;
  sim.owned_workload_ = owned_workload_;
  sim.workload_ = workload;
  sim.grid_ = grid_;
  sim.config_ = config_;

  if (!stream_path_.empty()) {
    if (oracle_slots_ > 0) {
      return Status::InvalidArgument(
          "WithOracleForecast() needs a materialised workload (it "
          "accumulates the realized per-slot counts); a streamed trace is "
          "scanned once at run time — derive the forecast offline and pass "
          "WithForecast() instead");
    }
    // Header + driver section only: the shell workload carries the fleet
    // and horizon, and validates the trace before the first Run.
    StatusOr<std::unique_ptr<OrderStreamReader>> reader =
        OrderStreamReader::Open(stream_path_);
    if (!reader.ok()) return reader.status();
    Workload shell;
    shell.drivers = (*reader)->drivers();
    shell.horizon_seconds = (*reader)->info().horizon_seconds;
    sim.owned_workload_ = std::make_shared<const Workload>(std::move(shell));
    sim.workload_ = sim.owned_workload_.get();
    sim.stream_path_ = stream_path_;
    sim.stream_max_orders_ = stream_max_orders_;
  }

  if (borrowed_travel_ != nullptr) {
    sim.travel_ = borrowed_travel_;
  } else {
    sim.owned_travel_ = std::make_shared<const StraightLineCostModel>(
        line_speed_mps_, line_detour_);
    sim.travel_ = sim.owned_travel_.get();
  }

  if (oracle_slots_ > 0) {
    DemandHistory realized(1, oracle_slots_, sim.grid_->num_regions());
    MRVD_RETURN_NOT_OK(realized.AccumulateDay(0, *workload, *sim.grid_));
    std::unique_ptr<DemandPredictor> oracle = MakeOraclePredictor();
    StatusOr<DemandForecast> forecast =
        DemandForecast::Build(*oracle, realized, /*eval_day=*/0);
    if (!forecast.ok()) return forecast.status();
    sim.owned_forecast_ =
        std::make_shared<const DemandForecast>(std::move(forecast).value());
    sim.forecast_ = sim.owned_forecast_.get();
  } else if (borrowed_forecast_ != nullptr || owned_forecast_ != nullptr) {
    sim.owned_forecast_ = owned_forecast_;
    sim.forecast_ = borrowed_forecast_ != nullptr ? borrowed_forecast_
                                                  : owned_forecast_.get();
    if (sim.forecast_->num_regions() != sim.grid_->num_regions()) {
      return Status::InvalidArgument(
          "forecast covers " + std::to_string(sim.forecast_->num_regions()) +
          " regions but the grid has " +
          std::to_string(sim.grid_->num_regions()));
    }
  }

  if (borrowed_scenario_ != nullptr) {
    sim.scenario_ = borrowed_scenario_;
  } else if (owned_scenario_ != nullptr) {
    sim.owned_scenario_ = owned_scenario_;
    sim.scenario_ = owned_scenario_.get();
  }
  return sim;
}

}  // namespace mrvd
