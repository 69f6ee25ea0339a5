// Telemetry subsystem (src/telemetry/ and its engine wiring): LogHistogram
// edge cases (empty / single sample / extreme magnitudes), registry merges,
// the registry's deterministic-signature contract across engine thread
// counts {1, 4}, trace-span recording in synchronous and async-drain modes
// (the drain thread's shutdown handshake runs under TSan in CI), timed
// spans, Chrome-trace export well-formedness, bit-identity of results and
// metric signatures with telemetry off, metrics-only and tracing, one stage
// timing reaching every sink, and
// ObserverList forwarding of the OnBatchTimings hook.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "api/api.h"
#include "telemetry/metrics.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/json_reader.h"
#include "util/thread_pool.h"

namespace mrvd {
namespace {

namespace fs = std::filesystem;

using telemetry::LogHistogram;
using telemetry::MetricScope;
using telemetry::MetricsRegistry;
using telemetry::TelemetryConfig;
using telemetry::TelemetrySession;
using telemetry::TraceSpan;

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, EmptyReportsZeroes) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.zero_count(), 0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.P99(), 0.0);
}

TEST(LogHistogramTest, SingleSampleIsEveryQuantile) {
  LogHistogram h;
  h.Add(3.5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 3.5);
  EXPECT_EQ(h.max(), 3.5);
  EXPECT_EQ(h.mean(), 3.5);
  // The [min, max] clamp makes the degenerate case exact, not approximate.
  EXPECT_EQ(h.Quantile(0.0), 3.5);
  EXPECT_EQ(h.P50(), 3.5);
  EXPECT_EQ(h.P95(), 3.5);
  EXPECT_EQ(h.P99(), 3.5);
  EXPECT_EQ(h.Quantile(1.0), 3.5);
}

TEST(LogHistogramTest, NonPositiveAndNonFiniteLandInZeroBucket) {
  LogHistogram h;
  h.Add(0.0);
  h.Add(-2.0);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.zero_count(), 4);
  EXPECT_TRUE(h.buckets().empty());
  // Every sample sits in the zero bucket, which reports as 0 (clamped into
  // the observed range).
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(LogHistogramTest, ExtremeMagnitudesDoNotLoseSamples) {
  LogHistogram h;
  h.Add(1e-300);
  h.Add(1e300);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.zero_count(), 0);
  EXPECT_EQ(h.min(), 1e-300);
  EXPECT_EQ(h.max(), 1e300);
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, h.min()) << q;
    EXPECT_LE(v, h.max()) << q;
  }
}

TEST(LogHistogramTest, BucketBoundsBracketTheSample) {
  LogHistogram h;
  h.Add(0.0123);
  ASSERT_EQ(h.buckets().size(), 1u);
  const int index = h.buckets().begin()->first;
  EXPECT_LE(LogHistogram::BucketLo(index), 0.0123);
  EXPECT_GT(LogHistogram::BucketHi(index), 0.0123);
  // ~2.2% relative bucket width: the bounds are tight around the sample.
  EXPECT_LT(LogHistogram::BucketHi(index) / LogHistogram::BucketLo(index),
            1.03);
}

TEST(LogHistogramTest, QuantilesTrackUniformSamples) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  // Bucket resolution is ~2.2%; allow 5% on the interpolated quantiles.
  EXPECT_NEAR(h.P50(), 500.0, 25.0);
  EXPECT_NEAR(h.P95(), 950.0, 48.0);
  EXPECT_NEAR(h.P99(), 990.0, 50.0);
  EXPECT_LE(h.P50(), h.P95());
  EXPECT_LE(h.P95(), h.P99());
  EXPECT_LE(h.P99(), h.max());
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
}

TEST(LogHistogramTest, AddOrderDoesNotMatter) {
  // Descending adds widen the bucket array downwards, ascending ones
  // upwards; both must end with the same buckets and quantiles.
  LogHistogram up;
  LogHistogram down;
  for (int i = 1; i <= 1000; ++i) {
    up.Add(static_cast<double>(i));
    down.Add(static_cast<double>(1001 - i));
  }
  EXPECT_EQ(up.buckets(), down.buckets());
  for (double q : {0.01, 0.5, 0.95, 0.99}) {
    EXPECT_EQ(up.Quantile(q), down.Quantile(q)) << q;
  }
}

// --------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, LookupsReturnStablePointers) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("a"), nullptr);
  telemetry::Counter* a = reg.counter("a");
  a->Add(2);
  EXPECT_EQ(reg.counter("a"), a);  // same metric, scope fixed at creation
  EXPECT_EQ(reg.FindCounter("a"), a);
  EXPECT_EQ(reg.FindCounter("a")->value(), 2);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("missing"), nullptr);
}

TEST(MetricsRegistryTest, SignatureCoversOnlyDeterministicMetrics) {
  MetricsRegistry reg;
  reg.counter("det.events")->Add(7);
  reg.counter("exec.repartitions", MetricScope::kExecution)->Add(3);
  reg.histogram("det.samples", MetricScope::kDeterministic)->Add(0.25);
  reg.histogram("exec.seconds")->Add(1.5);  // kExecution default
  reg.gauge("exec.depth")->Set(4.0);

  const std::string signature = reg.DeterministicSignature();
  EXPECT_EQ(signature, "counter det.events=7\nhistogram det.samples#1\n");
}

TEST(MetricsRegistryTest, ToJsonParsesAndCarriesScopes) {
  MetricsRegistry reg;
  reg.counter("engine.batches")->Add(12);
  reg.histogram("engine.dispatch_seconds", MetricScope::kDeterministic)
      ->Add(0.003);
  reg.gauge("pipeline.shards")->Set(8.0);

  StatusOr<JsonValue> doc = ParseJson(reg.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* batches = counters->Find("engine.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(*batches->GetInt64("value"), 12);
  EXPECT_EQ(*batches->GetString("scope"), "deterministic");

  const JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* dispatch = hists->Find("engine.dispatch_seconds");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(*dispatch->GetInt64("count"), 1);
  EXPECT_EQ(*dispatch->GetString("scope"), "deterministic");

  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* shards = gauges->Find("pipeline.shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(*shards->GetDouble("value"), 8.0);
  EXPECT_EQ(*shards->GetString("scope"), "execution");
}

TEST(MetricsRegistryTest, MergeAddsSamplesAndKeepsScopes) {
  MetricsRegistry run;
  run.counter("engine.batches")->Add(3);
  run.counter("engine.repartitions", MetricScope::kExecution)->Add(1);
  LogHistogram* seconds =
      run.histogram("engine.dispatch_seconds", MetricScope::kDeterministic);
  for (double v : {0.5, 0.25, 2.0}) seconds->Add(v);
  run.histogram("pipeline.shard_seconds");  // created, never fed
  run.gauge("depth")->Set(2.0);

  MetricsRegistry session;
  session.Merge(run);
  // Into an empty registry the merge is a copy: same values, same scopes.
  EXPECT_EQ(session.ToJson(), run.ToJson());
  EXPECT_EQ(session.FindHistogram("engine.dispatch_seconds")->sum(),
            seconds->sum());

  session.Merge(run);
  EXPECT_EQ(session.FindCounter("engine.batches")->value(), 6);
  const LogHistogram* merged = session.FindHistogram("engine.dispatch_seconds");
  EXPECT_EQ(merged->count(), 6);
  EXPECT_EQ(merged->min(), 0.25);
  EXPECT_EQ(merged->max(), 2.0);
  EXPECT_EQ(merged->sum(), 5.5);
  EXPECT_EQ(session.FindHistogram("pipeline.shard_seconds")->count(), 0);
  EXPECT_EQ(session.DeterministicSignature(),
            "counter engine.batches=6\n"
            "histogram engine.dispatch_seconds#6\n");
}

// ------------------------------------------------------------- TraceSpans

/// Unique fresh temp file path, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("mrvd_telemetry_" + tag + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)) + ".json");
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(TraceSessionTest, SyncModeRecordsNestedSpans) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  {
    TraceSpan outer(&session, "outer");
    TraceSpan inner(&session, "inner");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 2);

  TempFile file("sync_nested");
  Status written = session.WriteChromeTrace(file.str());
  ASSERT_TRUE(written.ok()) << written;
  StatusOr<JsonValue> doc = ReadJsonFile(file.str());
  ASSERT_TRUE(doc.ok()) << doc.status();

  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  bool has_thread_name = false;
  for (const JsonValue& e : events->array()) {
    const std::string ph = *e.GetString("ph");
    if (ph == "M") {
      has_thread_name = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const std::string name = *e.GetString("name");
    if (name == "outer") outer = &e;
    if (name == "inner") inner = &e;
  }
  EXPECT_TRUE(has_thread_name);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Proper nesting: the outer span starts no later and ends no earlier.
  const double outer_ts = *outer->GetDouble("ts");
  const double inner_ts = *inner->GetDouble("ts");
  const double outer_dur = *outer->GetDouble("dur");
  const double inner_dur = *inner->GetDouble("dur");
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
  EXPECT_EQ(*outer->GetInt64("tid"), *inner->GetInt64("tid"));
}

TEST(TraceSessionTest, NullAndDisabledSessionsAreNoops) {
  {
    TraceSpan span(nullptr, "nothing");  // must not crash
  }
  TelemetryConfig config;
  config.tracing = false;
  config.async_drain = false;
  TelemetrySession session(config);
  {
    TraceSpan span(&session, "dropped");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 0);
}

TEST(TraceSessionTest, TimedSpanWritesSecondsWithOrWithoutTracing) {
  double untraced = -1.0;
  {
    TraceSpan span(nullptr, "timed", &untraced);
  }
  EXPECT_GE(untraced, 0.0);

  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  double traced = -1.0;
  {
    TraceSpan span(&session, "timed", &traced);
  }
  session.Finish();
  EXPECT_GE(traced, 0.0);
  EXPECT_EQ(session.drained_events(), 1);
}

TEST(TraceSessionTest, WriteChromeTraceRequiresFinish) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  TempFile file("unfinished");
  EXPECT_FALSE(session.WriteChromeTrace(file.str()).ok());
}

TEST(TraceSessionTest, FinishIsIdempotentAndDropsLateSpans) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  {
    TraceSpan span(&session, "before");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 1);
  {
    TraceSpan late(&session, "after");  // finished session: no-op
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 1);
}

TEST(TraceSessionTest, AsyncDrainFlushesEverythingOnShutdown) {
  // The TSan stress: many pool workers record through thread-local buffers
  // while the drainer consumes, then Finish() flushes partial chunks and
  // joins. Small chunks force mid-run hand-offs so the drainer actually
  // races the recorders.
  TelemetryConfig config;
  config.chunk_events = 64;
  TelemetrySession session(config);
  constexpr int kTasks = 1000;
  {
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [&](int i) {
      TraceSpan span(&session, "work");
      if (i % 2 == 0) {
        TraceSpan nested(&session, "nested");
      }
    });
  }
  {
    TraceSpan main_span(&session, "main");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), kTasks + kTasks / 2 + 1);
}

// -------------------------------------------------- engine + API wiring

class EngineTelemetryTest : public testing::Test {
 protected:
  static SimulationBuilder MakeBuilder() {
    GeneratorConfig gcfg;
    gcfg.grid_rows = 8;
    gcfg.grid_cols = 8;
    gcfg.orders_per_day = 4000;
    gcfg.seed = 20190417;
    SimulationBuilder builder;
    builder.GenerateNycDay(/*day_index=*/1, /*num_drivers=*/40, gcfg)
        .BatchInterval(30.0)
        .HorizonSeconds(2 * 3600.0);
    return builder;
  }
};

TEST_F(EngineTelemetryTest, SimResultReportsLatencyPercentiles) {
  StatusOr<Simulation> sim = MakeBuilder().Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  StatusOr<SimResult> result = sim->Run("NEAR");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->num_batches, 0);
  const LogHistogram& latency = result->batch_seconds;
  EXPECT_EQ(latency.count(), result->num_batches);
  EXPECT_GT(latency.P50(), 0.0);
  EXPECT_LE(latency.P50(), latency.P95());
  EXPECT_LE(latency.P95(), latency.P99());
}

TEST_F(EngineTelemetryTest, TelemetryDoesNotChangeResults) {
  StatusOr<Simulation> plain = MakeBuilder().Build();
  ASSERT_TRUE(plain.ok()) << plain.status();
  StatusOr<SimResult> baseline = plain->Run("LS");
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // A metrics-only synchronous session and full tracing through the async
  // drainer: neither changes the result, and both record the same
  // deterministic metrics.
  std::vector<std::string> signatures;
  for (bool tracing : {false, true}) {
    SCOPED_TRACE(tracing ? "tracing, async drain" : "metrics only");
    TelemetryConfig config;
    config.tracing = tracing;
    config.async_drain = tracing;
    TelemetrySession session(config);
    StatusOr<Simulation> instrumented =
        MakeBuilder().WithTelemetry(&session).Build();
    ASSERT_TRUE(instrumented.ok()) << instrumented.status();
    StatusOr<SimResult> with = instrumented->Run("LS");
    ASSERT_TRUE(with.ok()) << with.status();
    session.Finish();

    EXPECT_EQ(with->served_orders, baseline->served_orders);
    EXPECT_EQ(with->reneged_orders, baseline->reneged_orders);
    EXPECT_EQ(with->num_batches, baseline->num_batches);
    EXPECT_EQ(with->total_revenue, baseline->total_revenue);
    EXPECT_EQ(with->dispatch_sweeps, baseline->dispatch_sweeps);
    EXPECT_EQ(with->dispatch_swaps_applied, baseline->dispatch_swaps_applied);
    EXPECT_EQ(session.drained_events() > 0, tracing);
    signatures.push_back(session.metrics().DeterministicSignature());
  }
  EXPECT_FALSE(signatures[0].empty());
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST_F(EngineTelemetryTest, DeterministicSignatureIdenticalAcrossThreads) {
  std::vector<std::string> signatures;
  for (int threads : {1, 4}) {
    TelemetrySession session;
    StatusOr<Simulation> sim =
        MakeBuilder().Threads(threads).WithTelemetry(&session).Build();
    ASSERT_TRUE(sim.ok()) << sim.status();
    StatusOr<SimResult> result = sim->Run("LS");
    ASSERT_TRUE(result.ok()) << result.status();
    session.Finish();

    const MetricsRegistry& reg = session.metrics();
    ASSERT_NE(reg.FindCounter("engine.batches"), nullptr);
    EXPECT_EQ(reg.FindCounter("engine.batches")->value(),
              result->num_batches);
    ASSERT_NE(reg.FindCounter("engine.assignments"), nullptr);
    EXPECT_EQ(reg.FindCounter("engine.assignments")->value(),
              result->served_orders);
    ASSERT_NE(reg.FindHistogram("engine.dispatch_seconds"), nullptr);
    EXPECT_EQ(reg.FindHistogram("engine.dispatch_seconds")->count(),
              result->num_batches);
    signatures.push_back(reg.DeterministicSignature());
    EXPECT_FALSE(signatures.back().empty());
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST_F(EngineTelemetryTest, ChromeTraceFromParallelRunIsWellFormed) {
  TelemetrySession session;  // tracing on, async drain on
  StatusOr<Simulation> sim =
      MakeBuilder().Threads(4).WithTelemetry(&session).Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  StatusOr<SimResult> result = sim->Run("LS");
  ASSERT_TRUE(result.ok()) << result.status();
  session.Finish();
  EXPECT_GT(session.drained_events(), 0);

  TempFile file("engine_trace");
  Status written = session.WriteChromeTrace(file.str());
  ASSERT_TRUE(written.ok()) << written;
  StatusOr<JsonValue> doc = ReadJsonFile(file.str());
  ASSERT_TRUE(doc.ok()) << doc.status();

  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int64_t batch_spans = 0;
  int64_t dispatch_spans = 0;
  for (const JsonValue& e : events->array()) {
    if (*e.GetString("ph") != "X") continue;
    const int64_t tid = *e.GetInt64("tid");
    EXPECT_GE(tid, 1);
    EXPECT_GE(*e.GetDouble("ts"), 0.0);
    EXPECT_GE(*e.GetDouble("dur"), 0.0);
    const std::string name = *e.GetString("name");
    if (name == "batch") ++batch_spans;
    if (name == "dispatch") ++dispatch_spans;
  }
  // One batch span and one nested dispatch span per engine batch.
  EXPECT_EQ(batch_spans, result->num_batches);
  EXPECT_EQ(dispatch_spans, result->num_batches);
}

/// Records, batch by batch, every stage time the hooks carry.
class TimingRecorder final : public SimObserver {
 public:
  void OnBatchBuilt(double /*now*/, double build_seconds,
                    const BatchContext& /*ctx*/) override {
    built.push_back(build_seconds);
  }
  void OnDispatchDone(double /*now*/, double dispatch_seconds,
                      const std::vector<Assignment>& /*a*/) override {
    dispatched.push_back(dispatch_seconds);
  }
  void OnBatchTimings(double /*now*/, const BatchTimings& t) override {
    timings.push_back(t);
  }

  std::vector<double> built, dispatched;
  std::vector<BatchTimings> timings;
};

TEST_F(EngineTelemetryTest, EverySinkHoldsTheSameStageSamples) {
  TelemetryConfig config;  // metrics only
  config.tracing = false;
  config.async_drain = false;
  TelemetrySession session(config);
  StatusOr<Simulation> sim = MakeBuilder().WithTelemetry(&session).Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  TimingRecorder recorder;
  StatusOr<SimResult> result = sim->Run("LS", &recorder);
  ASSERT_TRUE(result.ok()) << result.status();
  session.Finish();

  const auto batches = static_cast<size_t>(result->num_batches);
  ASSERT_GT(batches, 0u);
  ASSERT_EQ(recorder.timings.size(), batches);
  ASSERT_EQ(recorder.built.size(), batches);
  ASSERT_EQ(recorder.dispatched.size(), batches);
  // Summed in batch order, as each histogram adds its samples.
  double dispatch_sum = 0.0;
  double build_sum = 0.0;
  for (size_t b = 0; b < batches; ++b) {
    const BatchTimings& t = recorder.timings[b];
    EXPECT_EQ(recorder.dispatched[b], t.dispatch_seconds) << b;
    EXPECT_EQ(recorder.built[b], t.build_seconds) << b;
    dispatch_sum += t.dispatch_seconds;
    build_sum += t.build_seconds;
  }
  const MetricsRegistry& reg = session.metrics();
  const LogHistogram* dispatch = reg.FindHistogram("engine.dispatch_seconds");
  const LogHistogram* build = reg.FindHistogram("engine.batch_build_seconds");
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(build, nullptr);
  const SimResult& r = *result;
  for (const LogHistogram* h : {&r.batch_seconds, dispatch}) {
    EXPECT_EQ(h->count(), r.num_batches);
    EXPECT_EQ(h->sum(), dispatch_sum);
  }
  for (const LogHistogram* h : {&r.batch_build_seconds, build}) {
    EXPECT_EQ(h->count(), r.num_batches);
    EXPECT_EQ(h->sum(), build_sum);
  }
}

TEST_F(EngineTelemetryTest, ReusedSessionKeepsEachResultPerRun) {
  TelemetryConfig config;
  config.tracing = false;
  config.async_drain = false;
  TelemetrySession session(config);
  StatusOr<Simulation> sim = MakeBuilder().WithTelemetry(&session).Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  StatusOr<SimResult> first = sim->Run("NEAR");
  ASSERT_TRUE(first.ok()) << first.status();
  StatusOr<SimResult> second = sim->Run("NEAR");
  ASSERT_TRUE(second.ok()) << second.status();
  session.Finish();

  for (const SimResult* r : {&*first, &*second}) {
    EXPECT_EQ(r->batch_seconds.count(), r->num_batches);
    EXPECT_EQ(r->batch_build_seconds.count(), r->num_batches);
  }
  const MetricsRegistry& reg = session.metrics();
  EXPECT_EQ(reg.FindCounter("engine.batches")->value(),
            first->num_batches + second->num_batches);
  EXPECT_EQ(reg.FindHistogram("engine.dispatch_seconds")->count(),
            first->num_batches + second->num_batches);
}

// -------------------------------------------------- observer forwarding

/// Counts the timings hook and remembers the last BatchTimings.
class HookRecorder final : public SimObserver {
 public:
  void OnBatchTimings(double /*now*/, const BatchTimings& timings) override {
    ++batch_timings_calls;
    last_timings = timings;
  }

  int batch_timings_calls = 0;
  BatchTimings last_timings;
};

TEST_F(EngineTelemetryTest, ObserverListForwardsTimingsHook) {
  HookRecorder first;
  HookRecorder second;
  ObserverList list;
  list.Add(&first);
  list.Add(&second);
  list.Add(nullptr);  // ignored

  StatusOr<Simulation> sim = MakeBuilder().Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  StatusOr<SimResult> result = sim->Run("NEAR", &list);
  ASSERT_TRUE(result.ok()) << result.status();

  for (const HookRecorder* r : {&first, &second}) {
    EXPECT_EQ(r->batch_timings_calls, result->num_batches);
    EXPECT_GE(r->last_timings.TotalSeconds(),
              r->last_timings.dispatch_seconds);
    EXPECT_GT(r->last_timings.TotalSeconds(), 0.0);
  }
}

}  // namespace
}  // namespace mrvd
