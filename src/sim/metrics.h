// Aggregated outcome of one simulated day (the quantities reported in the
// paper's evaluation: total revenue, served orders, batch running time,
// idle-time estimation accuracy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/metrics.h"
#include "telemetry/metrics.h"

namespace mrvd {

/// Per-region idle-time aggregates (Figure 6).
struct RegionIdleStats {
  double predicted_sum = 0.0;
  double real_sum = 0.0;
  int64_t count = 0;

  double MeanPredicted() const {
    return count == 0 ? 0.0 : predicted_sum / static_cast<double>(count);
  }
  double MeanReal() const {
    return count == 0 ? 0.0 : real_sum / static_cast<double>(count);
  }
};

struct SimResult {
  std::string dispatcher;

  // Revenue & service (Figures 7-10, 13).
  double total_revenue = 0.0;
  int64_t served_orders = 0;
  int64_t reneged_orders = 0;
  int64_t total_orders = 0;

  // Scenario events (driver shifts, cancellations, surges). All zero when
  // the run had no (or an empty) ScenarioScript. Explicit cancellations
  // are NOT counted as reneges: served + reneged + cancelled = total for a
  // run-to-exhaustion day.
  int64_t cancelled_orders = 0;
  int64_t driver_sign_ons = 0;
  int64_t driver_sign_offs = 0;
  int64_t surge_changes = 0;  ///< surge-window begin/end transitions

  // Batch processing (Figures 7b-10b): copies of the run's
  // engine.dispatch_seconds and engine.batch_build_seconds histograms, one
  // sample per batch (P50()/P95()/P99() give the latency percentiles).
  // Sample counts are deterministic; the values are wall-clock execution
  // metadata, never part of bit-identity comparisons or campaign keys.
  int64_t num_batches = 0;
  telemetry::LogHistogram batch_seconds;        ///< dispatcher time
  telemetry::LogHistogram batch_build_seconds;  ///< batch construction time

  // Idle-time estimation study (Table 3, Figure 6). Both hold no samples
  // unless the run set SimConfig::record_idle_samples (off by default).
  ErrorStats idle_error;                    ///< (estimated, real) pairs
  std::vector<RegionIdleStats> region_idle; ///< indexed by region

  // Extra diagnostics.
  RunningStats served_wait_seconds;  ///< request -> assignment wait
  RunningStats driver_idle_seconds;  ///< realized idle gaps

  // Dispatcher work counters summed over the run (Dispatcher::counters);
  // all zero for dispatchers that don't track them.
  int64_t dispatch_sweeps = 0;
  int64_t dispatch_swaps_applied = 0;
  int64_t dispatch_proposals = 0;
  // Always zero or empty: LS's single sweep never recomputes a proposal,
  // and every batch runs one serial path, so no run repartitions or has
  // shards to balance. Kept only because the benchmark harness
  // (perfbench/main.cc) still reads them; ROADMAP item 1 stops reading them
  // and item 10 then deletes them.
  int64_t dispatch_proposals_recomputed = 0;
  int64_t repartitions = 0;
  RunningStats shard_size_imbalance;
  RunningStats shard_time_imbalance;

  double ServiceRate() const {
    return total_orders == 0
               ? 0.0
               : static_cast<double>(served_orders) /
                     static_cast<double>(total_orders);
  }
};

}  // namespace mrvd
