// Observation hooks for the staged simulation engine. The engine core
// (fleet lifecycle, order book, batch construction, assignment application)
// emits events through a SimObserver instead of interleaving metrics
// bookkeeping with simulation logic; SimResult itself is produced by the
// MetricsCollector observer below, and callers can attach their own
// observer to Simulator::Run for custom studies (per-hour breakdowns,
// traces, streaming-scenario triggers) without touching the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "scenario/events.h"
#include "sim/metrics.h"
#include "telemetry/metrics.h"
#include "workload/types.h"

namespace mrvd {

class BatchContext;
struct Assignment;
struct DispatchCounters;

/// Wall-time split of one batch across the engine's stages, in stage order
/// (where a batch's milliseconds went). Each field is the one reading of
/// its stage's scope, the same value its trace span and the run's metrics
/// registry record. Consecutive stages share the clock reading at their
/// boundary, so a stage's time includes the hook calls its own work fires
/// (OnDriverShiftChange, OnRiderCancelled and OnSurgeChange in scenario,
/// OnRiderReneged in expire, OnAssignmentApplied in apply) and apply's also
/// includes OnDispatchDone. OnBatchBuilt runs between build and dispatch,
/// in neither; OnBatchTimings and OnBatchEnd run after apply. Execution
/// metadata: the values vary run to run; only the event count is
/// deterministic.
struct BatchTimings {
  double release_seconds = 0.0;   ///< FleetState::ReleaseFinished
  double inject_seconds = 0.0;    ///< OrderBook::InjectArrivals
  double scenario_seconds = 0.0;  ///< ScenarioState::ApplyDueEvents
  double expire_seconds = 0.0;    ///< OrderBook::RemoveExpired
  /// The end-of-day check, FleetState::AdvanceRejoinWindow,
  /// BatchBuilder::Fill and FleetState::CaptureIdleEstimates. The capture
  /// solves ET only when the run records idle samples
  /// (SimConfig::record_idle_samples); those solves may compute the
  /// batch's first snapshots, which otherwise fall to dispatch.
  double build_seconds = 0.0;
  double dispatch_seconds = 0.0;  ///< Dispatcher::Dispatch
  double apply_seconds = 0.0;     ///< AssignmentApplier::Apply

  double TotalSeconds() const {
    return release_seconds + inject_seconds + scenario_seconds +
           expire_seconds + build_seconds + dispatch_seconds + apply_seconds;
  }
};

/// One accepted rider-driver assignment, fully resolved by the
/// AssignmentApplier (indices refer to the batch's BatchContext).
struct AssignmentEvent {
  int rider_index = -1;
  int driver_index = -1;
  OrderId order_id = -1;
  /// Workload DriverSpec::id — the same id space OnDriverShiftChange and
  /// ScenarioScript sign-on/sign-off events use (NOT the context index).
  DriverId driver_id = -1;
  RegionId driver_region = kInvalidRegion;  ///< region the driver idled in
  double pickup_seconds = 0.0;   ///< travel to the pickup (0 in UPPER mode)
  double wait_seconds = 0.0;     ///< request -> assignment wait
  double real_idle_seconds = 0.0;
  double idle_estimate = -1.0;   ///< ET captured at (re)join; < 0: none
  double revenue = 0.0;
  double busy_until = 0.0;       ///< when the driver rejoins the platform
};

/// Engine lifecycle hooks. All hooks default to no-ops; implement what you
/// need. Per batch the engine fires, in order: OnBatchBuilt (context fully
/// materialised, before dispatch), OnDispatchDone (assignments selected,
/// not yet applied), OnAssignmentApplied (once per accepted pair, in
/// application order), OnBatchEnd. OnRiderReneged fires as riders expire,
/// before the batch is built; OnRunEnd fires once after the horizon.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// The batch context is complete (riders, drivers, snapshot source).
  /// `build_seconds` is the wall time of the incremental construction.
  /// The engine refills one context in place every batch, so `ctx` is
  /// valid only until the next batch starts; copy what must outlive it.
  /// Its snapshots (and ET values) are computed from the engine's live
  /// counters when first read, so read them here or during dispatch, never
  /// once the batch's assignments are applied.
  virtual void OnBatchBuilt(double now, double build_seconds,
                            const BatchContext& ctx) {
    (void)now, (void)build_seconds, (void)ctx;
  }

  /// The dispatcher returned; assignments have not been applied yet.
  virtual void OnDispatchDone(double now, double dispatch_seconds,
                              const std::vector<Assignment>& assignments) {
    (void)now, (void)dispatch_seconds, (void)assignments;
  }

  /// One accepted assignment was applied to the fleet and order book.
  virtual void OnAssignmentApplied(double now, const AssignmentEvent& e) {
    (void)now, (void)e;
  }

  /// A waiting rider's pickup deadline passed before any assignment.
  /// Orders still unserved when the horizon ends do NOT fire this hook —
  /// they are reported in bulk via OnRunEnd's `never_dispatched` (so
  /// per-hook renege tallies plus that remainder equal
  /// SimResult::reneged_orders).
  virtual void OnRiderReneged(double now, const Order& order) {
    (void)now, (void)order;
  }

  /// A scenario shift change took effect: `signed_on` = true means the
  /// driver (re)entered the supply, false that it left (a busy driver
  /// leaves once its current trip completes; the hook fires when the
  /// sign-off is scheduled). Fires only for events that changed state —
  /// redundant script entries (double sign-off etc.) are silent.
  virtual void OnDriverShiftChange(double now, DriverId driver_id,
                                   bool signed_on) {
    (void)now, (void)driver_id, (void)signed_on;
  }

  /// A waiting rider explicitly cancelled (scenario event) — counted
  /// separately from deadline reneging.
  virtual void OnRiderCancelled(double now, const Order& order) {
    (void)now, (void)order;
  }

  /// A surge window began (`active` = true) or ended (false).
  virtual void OnSurgeChange(double now, const SurgeWindow& window,
                             bool active) {
    (void)now, (void)window, (void)active;
  }

  /// The batch's per-stage wall-time split. Fires after every stage of the
  /// batch completed, right before OnBatchEnd.
  virtual void OnBatchTimings(double now, const BatchTimings& timings) {
    (void)now, (void)timings;
  }

  /// All assignments of the batch are applied and served riders compacted.
  virtual void OnBatchEnd(double now) { (void)now; }

  /// The run is over. `never_dispatched` counts orders still waiting at the
  /// horizon plus orders whose request time was never reached.
  virtual void OnRunEnd(double end_time, int64_t never_dispatched) {
    (void)end_time, (void)never_dispatched;
  }
};

/// Fans every hook out to a list of observers, in registration order, so
/// several observers can share one run's observer slot. Borrows its links
/// (null is ignored); each must outlive the run.
class ObserverList : public SimObserver {
 public:
  void Add(SimObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  void OnBatchBuilt(double now, double build_seconds,
                    const BatchContext& ctx) override {
    for (SimObserver* o : observers_) o->OnBatchBuilt(now, build_seconds, ctx);
  }
  void OnDispatchDone(double now, double dispatch_seconds,
                      const std::vector<Assignment>& assignments) override {
    for (SimObserver* o : observers_) {
      o->OnDispatchDone(now, dispatch_seconds, assignments);
    }
  }
  void OnAssignmentApplied(double now, const AssignmentEvent& e) override {
    for (SimObserver* o : observers_) o->OnAssignmentApplied(now, e);
  }
  void OnRiderReneged(double now, const Order& order) override {
    for (SimObserver* o : observers_) o->OnRiderReneged(now, order);
  }
  void OnDriverShiftChange(double now, DriverId driver_id,
                           bool signed_on) override {
    for (SimObserver* o : observers_) {
      o->OnDriverShiftChange(now, driver_id, signed_on);
    }
  }
  void OnRiderCancelled(double now, const Order& order) override {
    for (SimObserver* o : observers_) o->OnRiderCancelled(now, order);
  }
  void OnSurgeChange(double now, const SurgeWindow& window,
                     bool active) override {
    for (SimObserver* o : observers_) o->OnSurgeChange(now, window, active);
  }
  void OnBatchTimings(double now, const BatchTimings& timings) override {
    for (SimObserver* o : observers_) o->OnBatchTimings(now, timings);
  }
  void OnBatchEnd(double now) override {
    for (SimObserver* o : observers_) o->OnBatchEnd(now);
  }
  void OnRunEnd(double end_time, int64_t never_dispatched) override {
    for (SimObserver* o : observers_) o->OnRunEnd(end_time, never_dispatched);
  }

 private:
  std::vector<SimObserver*> observers_;
};

/// Accumulates the SimResult aggregates: the outcome from the engine's
/// event hooks, in event order (so the Welford accumulators are
/// bit-identical to the former inline bookkeeping of the monolithic engine
/// loop), and the batch-processing figures from the run's own metrics
/// registry, which the engine feeds through RecordBatch.
class MetricsCollector final : public SimObserver {
 public:
  MetricsCollector(const std::string& dispatcher_name, int64_t total_orders,
                   int num_regions, bool record_idle_samples);

  /// One finished batch: its stage split, how many assignments the
  /// dispatcher returned, and its work counters (null for a dispatcher
  /// that tracks none).
  void RecordBatch(const BatchTimings& timings, size_t assignments,
                   const DispatchCounters* counters);

  /// The run's registry: engine.batches, engine.assignments,
  /// engine.dispatch_seconds and engine.batch_build_seconds, whose values
  /// or sample counts are deterministic.
  const telemetry::MetricsRegistry& registry() const { return registry_; }

  void OnAssignmentApplied(double now, const AssignmentEvent& e) override;
  void OnRiderReneged(double now, const Order& order) override;
  void OnDriverShiftChange(double now, DriverId driver_id,
                           bool signed_on) override;
  void OnRiderCancelled(double now, const Order& order) override;
  void OnSurgeChange(double now, const SurgeWindow& window,
                     bool active) override;
  /// Also copies the registry's batch figures into the result.
  void OnRunEnd(double end_time, int64_t never_dispatched) override;

  /// Moves the finished result out (the collector is spent afterwards).
  SimResult TakeResult() { return std::move(result_); }

 private:
  SimResult result_;
  bool record_idle_samples_;
  telemetry::MetricsRegistry registry_;
  telemetry::Counter* const batches_;
  telemetry::Counter* const assignments_;
  telemetry::LogHistogram* const dispatch_seconds_;
  telemetry::LogHistogram* const build_seconds_;
};

}  // namespace mrvd
