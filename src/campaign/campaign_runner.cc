#include "campaign/campaign_runner.h"

#include <cmath>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "campaign/workload_catalog.h"
#include "sim/hourly_stats.h"
#include "telemetry/session.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace mrvd {

CampaignRunner::CampaignRunner(CampaignSpec spec, std::string artifact_dir)
    : spec_(std::move(spec)), store_(std::move(artifact_dir)) {}

StatusOr<CampaignReport> CampaignRunner::Run(const CampaignOptions& options) {
  return Execute(Mode::kRun, options);
}

StatusOr<CampaignReport> CampaignRunner::Resume(
    const CampaignOptions& options) {
  return Execute(Mode::kResume, options);
}

StatusOr<CampaignReport> CampaignRunner::Summarize() const {
  return Execute(Mode::kSummarize, CampaignOptions{});
}

StatusOr<CampaignReport> CampaignRunner::Execute(
    Mode mode, const CampaignOptions& options) const {
  StatusOr<std::vector<CampaignCell>> cells = ExpandGrid(spec_);
  if (!cells.ok()) return cells.status();

  if (mode != Mode::kSummarize) {
    MRVD_RETURN_NOT_OK(store_.Init());
    // The spec lands before any run so a killed campaign can be resumed
    // from the directory alone (`campaign resume <dir>` re-reads it).
    MRVD_RETURN_NOT_OK(store_.SaveSpec(spec_));
  }

  CampaignReport report;
  report.cells.resize(cells->size());

  // Probe pass: decide per cell whether the store already answers it.
  // Serial — it is pure small-file I/O, and it must finish before we know
  // which Simulations are worth building at all.
  std::vector<size_t> pending;
  for (size_t i = 0; i < cells->size(); ++i) {
    CellOutcome& outcome = report.cells[i];
    outcome.cell = (*cells)[i];
    if (mode == Mode::kRun) {
      pending.push_back(i);
      continue;
    }
    StatusOr<RunArtifact> artifact = store_.LoadRun(outcome.cell);
    if (artifact.ok()) {
      outcome.source = CellOutcome::Source::kLoaded;
      outcome.artifact = std::move(artifact).value();
    } else if (mode == Mode::kResume) {
      pending.push_back(i);  // missing or invalid -> re-execute
    } else {
      outcome.source = CellOutcome::Source::kFailed;
      outcome.error = artifact.status().ToString();
    }
  }

  // Build each pending workload's Simulation once, then attach each
  // pending scenario's script — (workload, scenario) groups share one
  // read-only Simulation across all their cells. Serial: factories are
  // the expensive, non-thread-safe part (generators, CSV parses), and a
  // resume that skips a whole workload never pays for it.
  std::map<int, Simulation> workload_sims;
  std::map<std::pair<int, int>, Simulation> group_sims;
  for (size_t i : pending) {
    const CampaignCell& cell = report.cells[i].cell;
    auto workload_it = workload_sims.find(cell.workload_index);
    if (workload_it == workload_sims.end()) {
      StatusOr<Simulation> sim =
          WorkloadCatalog::Global().Build(cell.workload);
      if (!sim.ok()) return sim.status();
      workload_it = workload_sims
                        .emplace(cell.workload_index, std::move(sim).value())
                        .first;
    }
    std::pair<int, int> group{cell.workload_index, cell.scenario_index};
    if (group_sims.count(group) != 0) continue;
    if (cell.scenario == "none") {
      // The empty scenario runs unscripted — the engine's empty-script
      // bit-identity makes attaching an empty script equivalent, but not
      // attaching one skips the EventStream entirely.
      group_sims.emplace(group, workload_it->second);
    } else {
      StatusOr<ScenarioScript> script = ScenarioCatalog::Global().Build(
          cell.scenario, workload_it->second.workload());
      if (!script.ok()) return script.status();
      group_sims.emplace(
          group, workload_it->second.WithScenario(std::move(script).value()));
    }
  }

  // Execute pending cells in parallel. Each cell resolves and runs
  // through RunOne into its own pre-sized outcome slot, so the pool's
  // schedule cannot affect any result.
  if (!pending.empty()) {
    const int num_threads = options.num_threads == 0
                                ? ThreadPool::HardwareThreads()
                                : options.num_threads;
    ThreadPool pool(num_threads);
    pool.ParallelFor(static_cast<int>(pending.size()), [&](int p) {
      CellOutcome& outcome = report.cells[pending[static_cast<size_t>(p)]];
      const CampaignCell& cell = outcome.cell;
      const Simulation& sim =
          group_sims.at({cell.workload_index, cell.scenario_index});

      RunSpec spec(cell.dispatcher, cell.key);
      SimConfig config = sim.config();
      Status delta_status = ApplyConfigDelta(cell.config_delta, &config);
      if (!delta_status.ok()) {
        outcome.source = CellOutcome::Source::kFailed;
        outcome.error = delta_status.ToString();
        return;
      }

      // Per-cell telemetry: a synchronous session with tracing off (no
      // drainer thread, metrics only) — each cell runs on exactly one
      // worker, so the registry's coordinator-thread contract holds.
      std::optional<telemetry::TelemetrySession> session;
      if (options.telemetry) {
        telemetry::TelemetryConfig tele_config;
        tele_config.tracing = false;
        tele_config.async_drain = false;
        session.emplace(tele_config);
        config.telemetry = &*session;
      } else {
        // Never inherit a session from the Simulation's base config: one
        // session shared across concurrently executing cells would break
        // its single-run contract.
        config.telemetry = nullptr;
      }
      spec.config = config;
      spec.replication_seed = cell.seed;

      // The per-hour breakdown rides along on every executed cell — it is
      // deterministic (event-stream driven), cheap, and lands in the run
      // artifact.
      HourlyBreakdown hourly(config.horizon_seconds);
      spec.observer = &hourly;

      StatusOr<RunResult> result = RunOne(sim, spec);
      if (!result.ok()) {
        outcome.source = CellOutcome::Source::kFailed;
        outcome.error = result.status().ToString();
        return;
      }
      outcome.artifact = MakeRunArtifact(*result);
      outcome.artifact.hourly = hourly.rows();
      Status saved = store_.SaveRun(cell, outcome.artifact);
      if (!saved.ok()) {
        // The run succeeded but the store did not take it: report the cell
        // failed so the caller knows a resume will re-execute it.
        outcome.source = CellOutcome::Source::kFailed;
        outcome.error = saved.ToString();
        return;
      }
      if (session) {
        session->Finish();
        Status tele_saved = store_.SaveTelemetry(cell, session->MetricsJson());
        if (!tele_saved.ok()) {
          outcome.source = CellOutcome::Source::kFailed;
          outcome.error = tele_saved.ToString();
          return;
        }
      }
      outcome.source = CellOutcome::Source::kExecuted;
      outcome.live = std::move(result).value();
    });
  }

  // Aggregation pass: per (workload, scenario, dispatcher, delta) group
  // across the seed axis, in grid order — deterministic regardless of the
  // execution schedule.
  std::map<std::tuple<int, int, int, int>, size_t> group_index;
  for (const CellOutcome& outcome : report.cells) {
    switch (outcome.source) {
      case CellOutcome::Source::kExecuted: ++report.executed; break;
      case CellOutcome::Source::kLoaded: ++report.loaded; break;
      case CellOutcome::Source::kFailed: ++report.failed; break;
    }
    const CampaignCell& cell = outcome.cell;
    std::tuple<int, int, int, int> group{cell.workload_index,
                                         cell.scenario_index,
                                         cell.dispatcher_index,
                                         cell.delta_index};
    auto it = group_index.find(group);
    if (it == group_index.end()) {
      it = group_index.emplace(group, report.summaries.size()).first;
      GroupSummary summary;
      summary.workload = cell.workload;
      summary.scenario = cell.scenario;
      summary.dispatcher = cell.dispatcher;
      summary.config_delta = cell.config_delta;
      report.summaries.push_back(std::move(summary));
    }
    if (outcome.source == CellOutcome::Source::kFailed) continue;
    GroupSummary& summary = report.summaries[it->second];
    ++summary.replications;
    summary.revenue.Add(outcome.artifact.revenue);
    summary.served.Add(static_cast<double>(outcome.artifact.served));
    summary.service_rate.Add(outcome.artifact.service_rate);
    summary.wait_mean_s.Add(outcome.artifact.wait_mean_s);
    summary.idle_mean_s.Add(outcome.artifact.idle_mean_s);
  }

  report.manifest_json = ManifestToJson(spec_, report.cells, report.summaries);
  if (mode != Mode::kSummarize) {
    MRVD_RETURN_NOT_OK(ArtifactStore::WriteFileAtomic(store_.ManifestPath(),
                                                      report.manifest_json));
  }
  return report;
}

namespace {

void WriteSummaryStats(JsonWriter& w, const char* key,
                       const RunningStats& stats) {
  w.Key(key).BeginObject();
  w.Key("mean").Number(stats.mean());
  // Sample stddev (n-1), matching the ci95 half-width next to it: the
  // seeds are a sample of the replication distribution, and mixing the
  // population estimator in would understate the spread at small n.
  w.Key("stddev").Number(std::sqrt(stats.sample_variance()));
  w.Key("ci95").Number(MeanCiHalfWidth(stats));
  w.EndObject();
}

}  // namespace

std::string ManifestToJson(const CampaignSpec& spec,
                           const std::vector<CellOutcome>& cells,
                           const std::vector<GroupSummary>& summaries) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("campaign").String(spec.name);

  // Canonical axes, reconstructed from the cells (index -> canonical
  // string) so the manifest never depends on the raw spelling the spec
  // arrived with.
  auto write_axis = [&w, &cells](const char* key, int CampaignCell::* index,
                                 std::string CampaignCell::* value) {
    std::map<int, std::string> axis;
    for (const CellOutcome& outcome : cells) {
      axis[outcome.cell.*index] = outcome.cell.*value;
    }
    w.Key(key).BeginArray();
    for (const auto& [unused, v] : axis) w.String(v);
    w.EndArray();
  };
  w.Key("axes").BeginObject();
  write_axis("workloads", &CampaignCell::workload_index,
             &CampaignCell::workload);
  write_axis("scenarios", &CampaignCell::scenario_index,
             &CampaignCell::scenario);
  write_axis("dispatchers", &CampaignCell::dispatcher_index,
             &CampaignCell::dispatcher);
  {
    std::map<int, uint64_t> seeds;
    for (const CellOutcome& outcome : cells) {
      seeds[outcome.cell.seed_index] = outcome.cell.seed;
    }
    w.Key("seeds").BeginArray();
    for (const auto& [unused, s] : seeds) w.Number(s);
    w.EndArray();
  }
  write_axis("config_deltas", &CampaignCell::delta_index,
             &CampaignCell::config_delta);
  w.EndObject();

  // Per-cell records. No wall-clock and no executed-vs-loaded provenance:
  // the manifest of a resumed campaign must be byte-identical to a
  // from-scratch run's.
  w.Key("cells").BeginArray();
  for (const CellOutcome& outcome : cells) {
    const CampaignCell& cell = outcome.cell;
    w.BeginObject();
    w.Key("key").String(cell.key);
    w.Key("workload").String(cell.workload);
    w.Key("scenario").String(cell.scenario);
    w.Key("dispatcher_spec").String(cell.dispatcher);
    w.Key("config_delta").String(cell.config_delta);
    w.Key("seed").Number(cell.seed);
    if (outcome.source == CellOutcome::Source::kFailed) {
      w.Key("ok").Bool(false);
      w.Key("error").String(outcome.error);
    } else {
      const RunArtifact& a = outcome.artifact;
      w.Key("ok").Bool(true);
      w.Key("dispatcher").String(a.dispatcher_name);
      w.Key("revenue").Number(a.revenue);
      w.Key("served").Number(a.served);
      w.Key("reneged").Number(a.reneged);
      w.Key("cancelled").Number(a.cancelled);
      w.Key("total_orders").Number(a.total_orders);
      w.Key("num_batches").Number(a.num_batches);
      w.Key("service_rate").Number(a.service_rate);
      w.Key("wait_mean_s").Number(a.wait_mean_s);
      w.Key("idle_mean_s").Number(a.idle_mean_s);
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("summaries").BeginArray();
  for (const GroupSummary& s : summaries) {
    w.BeginObject();
    w.Key("workload").String(s.workload);
    w.Key("scenario").String(s.scenario);
    w.Key("dispatcher_spec").String(s.dispatcher);
    w.Key("config_delta").String(s.config_delta);
    w.Key("replications").Number(s.replications);
    WriteSummaryStats(w, "revenue", s.revenue);
    WriteSummaryStats(w, "served", s.served);
    WriteSummaryStats(w, "service_rate", s.service_rate);
    WriteSummaryStats(w, "wait_mean_s", s.wait_mean_s);
    WriteSummaryStats(w, "idle_mean_s", s.idle_mean_s);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
  return os.str();
}

}  // namespace mrvd
