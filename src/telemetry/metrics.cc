#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json_writer.h"

namespace mrvd {
namespace telemetry {

// ----------------------------------------------------------- LogHistogram

int LogHistogram::BucketIndex(double value) {
  // value = m * 2^exp with m in [0.5, 1): the octave is (exp - 1) and the
  // sub-bucket is the geometric position of m within it. frexp is exact
  // (pure bit manipulation), so two equal samples always share a bucket.
  int exp = 0;
  const double m = std::frexp(value, &exp);
  int sub = static_cast<int>((std::log2(m) + 1.0) *
                             static_cast<double>(kSubBuckets));
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return (exp - 1) * kSubBuckets + sub;
}

double LogHistogram::BucketLo(int index) {
  return std::exp2(static_cast<double>(index) /
                   static_cast<double>(kSubBuckets));
}

void LogHistogram::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value > 0.0 && std::isfinite(value)) {
    AddToBucket(BucketIndex(value), 1);
  } else {
    ++zero_count_;  // zero/negative/non-finite: below every log bucket
  }
}

void LogHistogram::AddToBucket(int index, int64_t n) {
  if (counts_.empty()) {
    first_index_ = index;
  } else if (index < first_index_) {
    counts_.insert(counts_.begin(), static_cast<size_t>(first_index_ - index),
                   0);
    first_index_ = index;
  }
  const auto slot = static_cast<size_t>(index - first_index_);
  if (slot >= counts_.size()) counts_.resize(slot + 1, 0);
  counts_[slot] += n;
}

std::map<int, int64_t> LogHistogram::buckets() const {
  std::map<int, int64_t> out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) out[first_index_ + static_cast<int>(i)] = counts_[i];
  }
  return out;
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  for (size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] != 0) {
      AddToBucket(other.first_index_ + static_cast<int>(i), other.counts_[i]);
    }
  }
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();

  // 0-indexed target rank within the sorted samples; walk the buckets in
  // ascending value order until the cumulative count covers it.
  const double rank = q * static_cast<double>(count_ - 1);
  double cumulative = static_cast<double>(zero_count_);
  if (rank < cumulative) return std::clamp(0.0, min(), max());
  for (size_t i = 0; i < counts_.size(); ++i) {
    const auto bucket_count = static_cast<double>(counts_[i]);
    const double next = cumulative + bucket_count;
    if (rank < next) {
      const int index = first_index_ + static_cast<int>(i);
      // Geometric interpolation inside the bucket: rank at the bucket's
      // first sample maps to its lower bound, at the last to its upper.
      const double frac = (rank - cumulative) / bucket_count;
      const double lo = BucketLo(index);
      const double hi = BucketHi(index);
      return std::clamp(lo * std::pow(hi / lo, frac), min(), max());
    }
    cumulative = next;
  }
  return max();
}

// -------------------------------------------------------- MetricsRegistry

Counter* MetricsRegistry::counter(const std::string& name, MetricScope scope) {
  Entry<Counter>& e = counters_[name];
  if (e.metric == nullptr) {
    e.metric = std::make_unique<Counter>();
    e.scope = scope;
  }
  return e.metric.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, MetricScope scope) {
  Entry<Gauge>& e = gauges_[name];
  if (e.metric == nullptr) {
    e.metric = std::make_unique<Gauge>();
    e.scope = scope;
  }
  return e.metric.get();
}

LogHistogram* MetricsRegistry::histogram(const std::string& name,
                                         MetricScope scope) {
  Entry<LogHistogram>& e = histograms_[name];
  if (e.metric == nullptr) {
    e.metric = std::make_unique<LogHistogram>();
    e.scope = scope;
  }
  return e.metric.get();
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, e] : other.counters_) {
    counter(name, e.scope)->Add(e.metric->value());
  }
  for (const auto& [name, e] : other.gauges_) {
    gauge(name, e.scope)->Set(e.metric->value());
  }
  for (const auto& [name, e] : other.histograms_) {
    histogram(name, e.scope)->Merge(*e.metric);
  }
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.metric.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.metric.get();
}

const LogHistogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.metric.get();
}

std::string MetricsRegistry::DeterministicSignature() const {
  // Name-ordered (std::map iteration) so equal registries always agree
  // byte for byte. Histogram VALUES are wall-clock metadata and never
  // appear — only how many samples each deterministic histogram received.
  std::ostringstream os;
  for (const auto& [name, entry] : counters_) {
    if (entry.scope != MetricScope::kDeterministic) continue;
    os << "counter " << name << "=" << entry.metric->value() << "\n";
  }
  for (const auto& [name, entry] : histograms_) {
    if (entry.scope != MetricScope::kDeterministic) continue;
    os << "histogram " << name << "#" << entry.metric->count() << "\n";
  }
  return os.str();
}

namespace {

const char* ScopeName(MetricScope scope) {
  return scope == MetricScope::kDeterministic ? "deterministic" : "execution";
}

}  // namespace

void MetricsRegistry::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, entry] : counters_) {
    w.Key(name).BeginObject();
    w.Key("value").Number(entry.metric->value());
    w.Key("scope").String(ScopeName(entry.scope));
    w.EndObject();
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, entry] : gauges_) {
    w.Key(name).BeginObject();
    w.Key("value").Number(entry.metric->value());
    w.Key("scope").String(ScopeName(entry.scope));
    w.EndObject();
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, entry] : histograms_) {
    const LogHistogram& h = *entry.metric;
    w.Key(name).BeginObject();
    w.Key("count").Number(h.count());
    w.Key("min").Number(h.min());
    w.Key("max").Number(h.max());
    w.Key("mean").Number(h.mean());
    w.Key("p50").Number(h.P50());
    w.Key("p95").Number(h.P95());
    w.Key("p99").Number(h.P99());
    w.Key("scope").String(ScopeName(entry.scope));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  WriteJson(w);
  os << "\n";
  return os.str();
}

}  // namespace telemetry
}  // namespace mrvd
