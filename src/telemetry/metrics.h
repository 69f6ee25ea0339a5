// Deterministic metrics vocabulary of the telemetry layer: named Counters,
// Gauges and log-bucketed histograms collected in a MetricsRegistry.
//
// The determinism contract mirrors the engine's bit-identity guarantee and
// is expressed per metric through MetricScope:
//
//   * kDeterministic — the metric's *value* (counters) or *sample count*
//     (histograms) is a pure function of the simulated inputs: identical
//     across repeated runs and execution schedules. These are what
//     MetricsRegistry::DeterministicSignature() projects, and what
//     tests/telemetry_test.cc compares with tracing on and off.
//   * kExecution — diagnostics about HOW the run executed (wall times).
//     Legitimately varies with hardware; excluded from the signature and
//     from any content-addressed key.
//
// Histogram *values* are wall-clock measurements and therefore always
// execution metadata — only the counts participate in the contract.
//
// Thread model: the registry and its metrics are written by one thread at a
// time (the engine's batch loop, which runs every batch serially), so no
// metric needs atomics or locks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mrvd {

class JsonWriter;

namespace telemetry {

enum class MetricScope {
  kDeterministic,  ///< value/count invariant across execution schedules
  kExecution,      ///< timing/load diagnostics; varies run to run
};

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Last-write-wins scalar (queue depths, ratios, config echoes).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed histogram over positive samples: every octave (power of
/// two) is split into kSubBuckets geometric sub-buckets, so the relative
/// width of any bucket is 2^(1/kSubBuckets) - 1 (~2.2%), uniformly across
/// the full double range — nanosecond spans and multi-second batches get
/// the same relative resolution without configuring bounds up front.
///
/// Quantile() interpolates geometrically inside the selected bucket and
/// clamps to the observed [min, max], which makes the degenerate cases
/// exact: an empty histogram reports 0, a single sample reports itself at
/// every quantile, and no quantile can leave the observed range.
///
/// Non-positive samples (a zero-duration span) land in a dedicated zero
/// bucket that sorts below every log bucket.
///
/// The counts sit in one array spanning the lowest to the highest bucket
/// seen, so Add() is an index computation and an increment: the engine
/// adds two samples every batch. Samples of one run's stage times span a
/// few hundred buckets; the whole double range spans about 67k.
class LogHistogram {
 public:
  static constexpr int kSubBuckets = 32;

  void Add(double value);

  /// Adds every sample of `other`, as if each had been Add()ed here (the
  /// sum adds `other`'s sum, so it may round differently than one Add per
  /// sample would when both sides hold samples).
  void Merge(const LogHistogram& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// The q-quantile (q in [0, 1]) of the recorded samples, exact to bucket
  /// resolution and clamped to [min(), max()]. 0 when empty.
  double Quantile(double q) const;

  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  /// Samples that were <= 0 (kept out of the log buckets).
  int64_t zero_count() const { return zero_count_; }

  /// Occupied log buckets: bucket index (ascending value) -> count.
  std::map<int, int64_t> buckets() const;

  /// Inclusive-lower / exclusive-upper value bounds of log bucket `index`.
  static double BucketLo(int index);
  static double BucketHi(int index) { return BucketLo(index + 1); }

 private:
  static int BucketIndex(double value);
  /// Adds `n` samples to log bucket `index`, widening counts_ to reach it.
  void AddToBucket(int index, int64_t n);

  std::vector<int64_t> counts_;  ///< counts_[i]: bucket first_index_ + i
  int first_index_ = 0;
  int64_t zero_count_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics, created on first use and iterated in name order — the
/// registry's JSON export and DeterministicSignature are byte-stable for a
/// given set of recorded events. Lookups return stable pointers (hot paths
/// resolve a metric once and keep the pointer).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name,
                   MetricScope scope = MetricScope::kDeterministic);
  Gauge* gauge(const std::string& name,
               MetricScope scope = MetricScope::kExecution);
  LogHistogram* histogram(const std::string& name,
                          MetricScope scope = MetricScope::kExecution);

  /// Adds `other`'s counter values and histogram samples into this
  /// registry and takes its gauge values. A metric absent here is created
  /// with `other`'s scope; one present keeps its own.
  void Merge(const MetricsRegistry& other);

  /// The deterministic projection, one line per metric in name order:
  /// kDeterministic counter values and kDeterministic histogram counts.
  /// Two runs of the same inputs must produce identical signatures, with
  /// or without tracing (tests/telemetry_test.cc enforces it).
  std::string DeterministicSignature() const;

  /// Full registry as a JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count,min,max,mean,p50,p95,p99,scope}}}.
  void WriteJson(JsonWriter& w) const;
  std::string ToJson() const;

  /// Lookup without creation (tests, exporters); null when absent.
  const Counter* FindCounter(const std::string& name) const;
  const LogHistogram* FindHistogram(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    MetricScope scope = MetricScope::kExecution;
  };

  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<LogHistogram>> histograms_;
};

}  // namespace telemetry
}  // namespace mrvd
