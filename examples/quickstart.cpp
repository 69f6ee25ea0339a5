// Quickstart — START HERE. The experiment API's front door: a complete
// simulated day (synthetic NYC workload, ground-truth demand forecast,
// batch engine, local-search dispatcher) assembled and run in ~10 lines
// through SimulationBuilder.
//
// Every other example builds on the same surface (src/api/): the
// DispatcherRegistry resolves "LS" below — or "LS:max_sweeps=8",
// "RAND:seed=42", any registered spec — and unknown names fail with a
// Status naming the known roster instead of crashing.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "api/api.h"
#include "telemetry/session.h"

using namespace mrvd;

int main() {
  GeneratorConfig city;         // the paper's 16x16 NYC grid...
  city.orders_per_day = 20000;  // ...at scaled-down demand

  // MRVD_TRACE_JSON=<path>: attach a telemetry session and export the
  // run's Chrome trace there (open it in Perfetto / chrome://tracing).
  const char* trace_path = std::getenv("MRVD_TRACE_JSON");
  std::optional<telemetry::TelemetrySession> telemetry;
  if (trace_path != nullptr) telemetry.emplace();

  SimulationBuilder builder;
  builder.GenerateNycDay(/*day_index=*/7, /*num_drivers=*/250, city)
      .WithOracleForecast();  // ground-truth per-slot demand counts
  if (telemetry.has_value()) builder.WithTelemetry(&*telemetry);
  StatusOr<Simulation> sim = builder.Build();
  if (!sim.ok()) {
    std::fprintf(stderr, "build failed: %s\n", sim.status().ToString().c_str());
    return 1;
  }
  StatusOr<SimResult> run = sim->Run("LS");  // queueing-based local search
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return 1;
  }

  const SimResult& r = *run;
  std::printf("dispatcher       : %s\n", r.dispatcher.c_str());
  std::printf("served orders    : %lld / %lld (%.1f%%)\n",
              (long long)r.served_orders, (long long)r.total_orders,
              100.0 * r.ServiceRate());
  std::printf("total revenue    : %.3e (alpha * trip seconds)\n",
              r.total_revenue);
  std::printf("mean rider wait  : %.1f s\n", r.served_wait_seconds.mean());
  std::printf("mean driver idle : %.1f s\n", r.driver_idle_seconds.mean());
  std::printf("mean batch time  : %.3f ms over %lld batches\n",
              r.batch_seconds.mean() * 1e3, (long long)r.num_batches);
  std::printf("dispatch latency : p50 %.3f / p95 %.3f / p99 %.3f ms\n",
              r.batch_seconds.P50() * 1e3, r.batch_seconds.P95() * 1e3,
              r.batch_seconds.P99() * 1e3);

  if (telemetry.has_value()) {
    telemetry->Finish();
    if (Status st = telemetry->WriteChromeTrace(trace_path); !st.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace            : %s (%lld spans)\n", trace_path,
                (long long)telemetry->drained_events());
  }
  return 0;
}
