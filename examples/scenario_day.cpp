// A scripted operations day through the scenario event subsystem: a
// two-shift fleet (the evening half is off duty until mid-day), a rider
// cancellation hazard, and morning + evening demand surges — run under the
// full dispatcher roster on the same base workload.
// (New here? Read examples/quickstart.cpp first — it introduces the
// SimulationBuilder surface this example builds on.)
//
// The roster comes straight from the DispatcherRegistry (no hand-written
// name list), each run executes through RunOne, and the first run carries
// an ObserverList composing two independent links in its one observer
// slot: a narrator printing shift/surge transitions, and the library's
// HourlyBreakdown, whose rows give the per-hour cancellation profile.
//
// Usage:
//   ./build/examples/scenario_day [orders_per_day] [num_drivers]
#include <climits>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "scenario/generator.h"
#include "sim/hourly_stats.h"
#include "util/strings.h"

using namespace mrvd;

namespace {

/// Prints shift changes and surge transitions as the engine applies them.
class TimelineNarrator : public SimObserver {
 public:
  void OnDriverShiftChange(double now, DriverId driver_id,
                           bool signed_on) override {
    ++changes_;
    if (changes_ % 100 == 1) {
      std::printf("  %s driver %lld signs %s (change #%lld)\n",
                  Clock(now).c_str(), (long long)driver_id,
                  signed_on ? "on" : "off", (long long)changes_);
    }
  }
  void OnSurgeChange(double now, const SurgeWindow& w, bool active) override {
    std::printf("  %s surge x%.1f %s\n", Clock(now).c_str(), w.multiplier,
                active ? "begins" : "ends");
  }

 private:
  static std::string Clock(double now) {
    int minutes = static_cast<int>(now / 60.0);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%02d:%02d", minutes / 60, minutes % 60);
    return buf;
  }
  int64_t changes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // Strict parsing: "3OO" or "30k" is a usage error, not a silent 3 / 30.
  double orders = 30000.0;
  int drivers = 300;
  if (argc > 1) {
    StatusOr<double> v = ParseDouble(argv[1]);
    if (!v.ok() || !(*v > 0.0) || !std::isfinite(*v)) {
      std::fprintf(stderr, "bad orders_per_day '%s'\nusage: %s "
                   "[orders_per_day] [num_drivers]\n", argv[1], argv[0]);
      return 2;
    }
    orders = *v;
  }
  if (argc > 2) {
    StatusOr<int64_t> v = ParseInt64(argv[2]);
    if (!v.ok() || *v < 1 || *v > INT_MAX) {
      std::fprintf(stderr, "bad num_drivers '%s'\nusage: %s "
                   "[orders_per_day] [num_drivers]\n", argv[2], argv[0]);
      return 2;
    }
    drivers = static_cast<int>(*v);
  }

  GeneratorConfig gen_cfg;
  gen_cfg.orders_per_day = orders;
  NycLikeGenerator generator(gen_cfg);
  Workload day = generator.GenerateDay(/*day_index=*/3, drivers);
  std::printf("generated %zu orders, %d drivers\n", day.orders.size(),
              drivers);

  // The scripted day: two shifts changing at noon with a 30-minute
  // overlap, a 6%% cancellation hazard, and two rush-hour surges.
  ScenarioDayConfig day_cfg;
  day_cfg.two_shift_fleet = true;
  day_cfg.shift_change_seconds = 12 * 3600.0;
  day_cfg.shift_overlap_seconds = 1800.0;
  day_cfg.cancel_probability = 0.06;
  day_cfg.surges.push_back(RushHourSurge(7.5 * 3600.0, 9.5 * 3600.0, 1.8));
  day_cfg.surges.push_back(RushHourSurge(17.0 * 3600.0, 19.0 * 3600.0, 2.2));
  ScenarioScript script = BuildScenarioDay(day, day_cfg);
  std::printf("scenario: %zu events (two-shift fleet, 6%% cancellation "
              "hazard, AM+PM surges)\n\n",
              script.size());

  // One environment for every run: the workload, the realized-counts
  // oracle forecast (so the surge multipliers act on a live prediction),
  // and the script. Paper defaults: Δ=3 s, t_c=20 min.
  StatusOr<Simulation> sim = SimulationBuilder()
                                 .WithWorkload(std::move(day), generator.grid())
                                 .WithOracleForecast()
                                 .WithScenario(std::move(script))
                                 .Build();
  if (!sim.ok()) {
    std::fprintf(stderr, "build failed: %s\n", sim.status().ToString().c_str());
    return 1;
  }

  // The registry IS the roster — alphabetical, UPPER automatically running
  // with zero pickup travel via its registered trait.
  const std::vector<std::string> roster = DispatcherRegistry::Global().Names();

  // The first run narrates the timeline and profiles cancellations per
  // hour through one ObserverList: two links, one observer slot.
  TimelineNarrator narrator;
  HourlyBreakdown hourly(sim->config().horizon_seconds);
  ObserverList first_run_observers;
  first_run_observers.Add(&narrator);
  first_run_observers.Add(&hourly);

  std::printf("timeline (%s run):\n", roster.front().c_str());
  std::vector<RunResult> results;
  for (const std::string& name : roster) {
    RunSpec spec(name);
    if (results.empty()) spec.observer = &first_run_observers;
    StatusOr<RunResult> run = RunOne(*sim, spec);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(run).value());
  }

  std::printf("\n%-8s %12s %9s %9s %9s %9s %9s\n", "approach", "revenue",
              "served", "reneged", "cancel", "svc-rate", "shift-chg");
  for (const RunResult& run : results) {
    const SimResult& r = run.result;
    std::printf("%-8s %12.4e %9lld %9lld %9lld %8.1f%% %9lld\n",
                run.label.c_str(), r.total_revenue,
                (long long)r.served_orders, (long long)r.reneged_orders,
                (long long)r.cancelled_orders, 100.0 * r.ServiceRate(),
                (long long)(r.driver_sign_ons + r.driver_sign_offs));
  }
  std::printf("\nhourly cancellations (%s):\n  hour  cancelled\n",
              roster.front().c_str());
  for (size_t h = 0; h < hourly.rows().size(); ++h) {
    const int64_t cancelled = hourly.rows()[h].cancelled;
    if (cancelled == 0) continue;
    std::printf("  %4zu %10lld\n", h, (long long)cancelled);
  }
  return 0;
}
