#include "api/simulation_builder.h"

#include <cmath>
#include <utility>

#include "api/experiment_runner.h"
#include "prediction/predictor.h"
#include "workload/demand_history.h"
#include "workload/order_source.h"
#include "workload/order_stream.h"

namespace mrvd {

// ---------------------------------------------------------------------
// Simulation

StatusOr<SimResult> Simulation::Run(const std::string& dispatcher_spec,
                                    SimObserver* observer) const {
  RunSpec spec(dispatcher_spec);
  spec.observer = observer;
  StatusOr<RunResult> run = RunOne(*this, spec);
  if (!run.ok()) return run.status();
  return std::move(run).value().result;
}

StatusOr<SimResult> Simulation::RunWith(const SimConfig& config,
                                        Dispatcher& dispatcher,
                                        const ScenarioScript* scenario,
                                        SimObserver* observer) const {
  // The Simulator aborts on an invalid config; a caller gets the Status.
  MRVD_RETURN_NOT_OK(config.Validate());
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

SimulationBuilder& SimulationBuilder::WithStraightLineTravel(
    double speed_mps, double detour_factor) {
  line_speed_mps_ = speed_mps;
  line_detour_ = detour_factor;
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

SimulationBuilder& SimulationBuilder::HorizonSeconds(double seconds) {
  config_.horizon_seconds = seconds;
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
  // A local destination's weight is exp(-ring / gravity_scale_cells): NaN
  // or infinite at a scale of 0 or below (or NaN), so the generator cannot
  // draw one. +inf is valid: no decay.
  if (generator_ != nullptr &&
      !(generator_->config().gravity_scale_cells > 0.0)) {
    return Status::InvalidArgument(
        "generator gravity_scale_cells must be positive, got " +
        std::to_string(generator_->config().gravity_scale_cells));
  }
  MRVD_RETURN_NOT_OK(config_.Validate());
  // The TravelCostModel::SpeedMps contract that candidate generation prunes
  // on: a finite positive speed, and no trip shorter than the crow-fly
  // distance.
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

  sim.travel_ = std::make_shared<const StraightLineCostModel>(line_speed_mps_,
                                                             line_detour_);

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

  sim.owned_scenario_ = owned_scenario_;
  sim.scenario_ = owned_scenario_.get();
  return sim;
}

}  // namespace mrvd
