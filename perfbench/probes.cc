#include "probes.h"

namespace perfbench {

namespace {
// 16 KiB of values, inside any L1 data cache this runs on. A sort takes
// about 0.25 ms on the 2.1 GHz Xeon vCPUs this was tuned on; sampled once
// every 50 ms, the timed phase spends about 0.5% of its time sampling.
constexpr size_t kSortValues = 4096;
constexpr int64_t kSortPeriodNs = 50'000'000;
}  // namespace

int64_t ReferenceSortNs() {
  // Per thread: grid cells sample on two runner threads at once.
  thread_local std::vector<uint32_t> values(kSortValues);
  thread_local uint64_t state = 0x9E3779B97F4A7C15ULL;
  // Filling is not timed; it also brings the values into L1, so the sort
  // does not depend on what the program left in the caches.
  for (uint32_t& v : values) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<uint32_t>(state >> 32);
  }
  const int64_t t0 = NowNs();
  std::sort(values.begin(), values.end());
  // Makes the sorted values needed before the clock is read again.
  asm volatile("" : : "r"(values.front()), "r"(values.back()) : "memory");
  return NowNs() - t0;
}

std::optional<SortSampler::Sample> SortSampler::MaybeSample(int64_t now) {
  if (!enabled_ || now < next_ns_) return std::nullopt;
  next_ns_ = now + kSortPeriodNs;
  const int64_t sort_ns = ReferenceSortNs();
  return Sample{sort_ns, NowNs()};
}

void TracedObserver::OnBatchEnd(double) {
  const int64_t t = NowNs();
  const double interval_s = static_cast<double>(t - last_ns_) * 1e-9;
  ++stats_->batches;
  stats_->release_s += timings_.release_seconds;
  stats_->inject_s += timings_.inject_seconds;
  stats_->scenario_s += timings_.scenario_seconds;
  stats_->expire_s += timings_.expire_seconds;
  stats_->build_s += timings_.build_seconds;
  stats_->apply_s += timings_.apply_seconds;
  stats_->untimed_s += interval_s - timings_.TotalSeconds();
  last_ns_ = t;
  span_.reset();
  if (++ended_ < batches_) span_.emplace(session_, "batch", kCategory);
}

void ProbedDispatcher::Dispatch(const mrvd::BatchContext& ctx,
                                std::vector<mrvd::Assignment>* out) {
  TraceSpan dispatch_span(session_, "dispatch", kCategory);

  int64_t t0 = NowNs();
  std::vector<mrvd::CandidatePair> pairs;
  {
    TraceSpan span(session_, "dispatch.candidate_gen", kCategory);
    pairs = mrvd::GenerateValidPairs(ctx);
  }
  int64_t t1 = NowNs();
  const double candidate_gen_s = static_cast<double>(t1 - t0) * 1e-9;
  stats_->candidate_gen_s += candidate_gen_s;
  stats_->candidate_pairs += static_cast<int64_t>(pairs.size());

  memo_.clear();
  const mrvd::IdleTimeFn idle = [this, &ctx](mrvd::RegionId region,
                                             int extra) {
    const int64_t key = mrvd::BatchContext::IdleCacheKey(region, extra);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const int64_t s0 = NowNs();
    const double et = ctx.ComputeIdleSeconds(region, extra);
    stats_->et_solve_s += static_cast<double>(NowNs() - s0) * 1e-9;
    ++stats_->et_solves;
    memo_.emplace(key, et);
    return et;
  };
  t0 = NowNs();
  {
    TraceSpan span(session_, "dispatch.greedy", kCategory);
    mrvd::IrgState state = mrvd::RunGreedySelectionWithIdle(
        ctx, pairs, mrvd::GreedyObjective::kIdleRatio, idle);
    (void)state;
  }
  t1 = NowNs();
  const double greedy_s = static_cast<double>(t1 - t0) * 1e-9;
  stats_->greedy_s += greedy_s;

  t0 = NowNs();
  inner_->Dispatch(ctx, out);
  t1 = NowNs();
  const double dispatch_s = static_cast<double>(t1 - t0) * 1e-9;
  stats_->dispatch_ms.push_back(dispatch_s * 1e3);
  stats_->assignments_returned += static_cast<int64_t>(out->size());
  if (inner_->name() == "LS") {
    stats_->ls_refine_s += dispatch_s - candidate_gen_s - greedy_s;
  }
}

}  // namespace perfbench
