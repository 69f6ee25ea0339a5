// Extending the framework with a custom dispatcher.
// (New here? Read examples/quickstart.cpp first — it introduces the
// SimulationBuilder surface this example builds on.)
//
// Implements an urgency-aware greedy — riders closest to their pickup
// deadline are rescued first, ties broken by idle ratio — and
// SELF-REGISTERS it in the DispatcherRegistry with a typed parameter, so
// "URGENT" and "URGENT:idle_weight=0" become first-class specs next to
// "IRG" and "LS:max_sweeps=8". The sweep at the bottom runs the whole
// comparison as a loop over RunOne.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "api/api.h"
#include "matching/bipartite.h"

using namespace mrvd;

namespace {

/// Serve the riders that are about to renege first; among equally urgent
/// riders prefer destinations with short expected idle (the queueing
/// signal), i.e. combine deadline pressure with Eq. 17's idle ratio.
class UrgencyDispatcher final : public Dispatcher {
 public:
  explicit UrgencyDispatcher(double idle_weight) : idle_weight_(idle_weight) {}

  std::string name() const override { return "URGENT"; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    const std::vector<CandidatePair>& pairs = ctx.ValidPairs();
    std::vector<WeightedPair> weighted;
    weighted.reserve(pairs.size());
    for (const auto& c : pairs) {
      const WaitingRider& r =
          ctx.riders()[static_cast<size_t>(c.rider_index)];
      double slack = r.pickup_deadline - ctx.now();  // smaller = more urgent
      double et = ctx.ExpectedIdleSeconds(r.dropoff_region);
      double idle_ratio = et / (r.trip_seconds + et);
      // Urgency dominates; the idle ratio orders riders of similar slack.
      weighted.push_back(
          {c.rider_index, c.driver_index, slack + idle_weight_ * idle_ratio});
    }
    for (size_t idx : GreedyMatch(weighted)) {
      out->push_back({weighted[idx].left, weighted[idx].right});
    }
  }

 private:
  double idle_weight_;
};

// Self-registration: a static registrar adds URGENT to the global roster
// before main() runs. The declared parameter gets the same treatment as the
// built-ins' — "URGENT:idle_weight=50" parses and type-checks, and
// "URGENT:bogus=1" fails with a Status naming the declared parameters.
const DispatcherRegistrar kRegisterUrgent(
    "URGENT",
    {{"idle_weight", CatalogParam::Type::kDouble, "200",
      "weight of the idle ratio against deadline slack"}},
    [](const CatalogParams& p) {
      return std::make_unique<UrgencyDispatcher>(p.GetDouble("idle_weight"));
    });

}  // namespace

int main() {
  GeneratorConfig city;
  city.orders_per_day = 30000;
  StatusOr<Simulation> sim = SimulationBuilder()
                                 .GenerateNycDay(/*day_index=*/2,
                                                 /*num_drivers=*/280, city)
                                 .WithOracleForecast()
                                 .Build();
  if (!sim.ok()) {
    std::fprintf(stderr, "build failed: %s\n", sim.status().ToString().c_str());
    return 1;
  }

  std::vector<RunResult> results;
  for (const char* spec : {
           "URGENT",                // idle_weight at its declared default
           "URGENT:idle_weight=0",  // pure deadline pressure, no queue signal
           "IRG",
           "NEAR",
       }) {
    StatusOr<RunResult> run = RunOne(*sim, RunSpec(spec));
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(run).value());
  }

  std::printf("%-22s %12s %10s %10s\n", "spec", "revenue", "served",
              "svc-rate");
  for (const RunResult& r : results) {
    std::printf("%-22s %12.4e %10lld %9.1f%%\n", r.label.c_str(),
                r.result.total_revenue, (long long)r.result.served_orders,
                100.0 * r.result.ServiceRate());
  }
  return 0;
}
