#include "sim/observer.h"

#include "sim/batch.h"

namespace mrvd {

MetricsCollector::MetricsCollector(const std::string& dispatcher_name,
                                   int64_t total_orders, int num_regions,
                                   bool record_idle_samples)
    : record_idle_samples_(record_idle_samples),
      batches_(registry_.counter("engine.batches")),
      assignments_(registry_.counter("engine.assignments")),
      dispatch_seconds_(registry_.histogram(
          "engine.dispatch_seconds", telemetry::MetricScope::kDeterministic)),
      build_seconds_(
          registry_.histogram("engine.batch_build_seconds",
                              telemetry::MetricScope::kDeterministic)) {
  result_.dispatcher = dispatcher_name;
  result_.total_orders = total_orders;
  result_.region_idle.assign(static_cast<size_t>(num_regions), {});
}

void MetricsCollector::RecordBatch(const BatchTimings& timings,
                                   size_t assignments,
                                   const DispatchCounters* counters) {
  batches_->Add();
  assignments_->Add(static_cast<int64_t>(assignments));
  dispatch_seconds_->Add(timings.dispatch_seconds);
  build_seconds_->Add(timings.build_seconds);
  if (counters == nullptr) return;
  result_.dispatch_sweeps += counters->sweeps;
  result_.dispatch_swaps_applied += counters->swaps_applied;
  result_.dispatch_proposals += counters->proposals;
}

void MetricsCollector::OnAssignmentApplied(double /*now*/,
                                           const AssignmentEvent& e) {
  if (record_idle_samples_ && e.idle_estimate >= 0.0) {
    result_.idle_error.Add(e.idle_estimate, e.real_idle_seconds);
    auto& reg = result_.region_idle[static_cast<size_t>(e.driver_region)];
    reg.predicted_sum += e.idle_estimate;
    reg.real_sum += e.real_idle_seconds;
    ++reg.count;
  }
  result_.driver_idle_seconds.Add(e.real_idle_seconds);
  result_.total_revenue += e.revenue;
  ++result_.served_orders;
  result_.served_wait_seconds.Add(e.wait_seconds);
}

void MetricsCollector::OnRiderReneged(double /*now*/, const Order& /*order*/) {
  ++result_.reneged_orders;
}

void MetricsCollector::OnDriverShiftChange(double /*now*/,
                                           DriverId /*driver_id*/,
                                           bool signed_on) {
  if (signed_on) {
    ++result_.driver_sign_ons;
  } else {
    ++result_.driver_sign_offs;
  }
}

void MetricsCollector::OnRiderCancelled(double /*now*/,
                                        const Order& /*order*/) {
  ++result_.cancelled_orders;
}

void MetricsCollector::OnSurgeChange(double /*now*/,
                                     const SurgeWindow& /*window*/,
                                     bool /*active*/) {
  ++result_.surge_changes;
}

void MetricsCollector::OnRunEnd(double /*end_time*/,
                                int64_t never_dispatched) {
  result_.reneged_orders += never_dispatched;
  result_.num_batches = batches_->value();
  result_.batch_seconds = *dispatch_seconds_;
  result_.batch_build_seconds = *build_seconds_;
}

}  // namespace mrvd
