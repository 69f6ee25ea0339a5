#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mrvd {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); }).get();
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, InlineSubmitRunsTasksInSubmissionOrder) {
  // The queue is FIFO. Strict start order is only observable without worker
  // races, i.e. on the inline path — which shares the same queue contract.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ContendedSubmitRunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<int> ran;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 128; ++i) {
    futures.push_back(pool.Submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      ran.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  std::sort(ran.begin(), ran.end());
  std::vector<int> expected(128);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(ran, expected);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(100, [&](int i) {
      if (i == 7 || i == 42) throw std::invalid_argument(std::to_string(i));
      completed++;
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "7");
  }
  // All non-throwing iterations still ran (no early abort mid-batch).
  EXPECT_EQ(completed.load(), 98);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  // The simulator submits one wave of work per batch; the pool must survive
  // many waves without leaking or deadlocking.
  ThreadPool pool(3);
  long total = 0;
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<long> sum{0};
    pool.ParallelFor(64, [&](int i) { sum += i; });
    total += sum.load();
  }
  EXPECT_EQ(total, 50L * (64 * 63 / 2));
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  // A task running on a worker may itself call ParallelFor on the same pool
  // (code called from a pool task cannot tell it runs on a worker); the
  // nested call must run inline rather than wait on queue slots behind it.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](int) {
    // Outer iterations run on workers and on the caller; either way the
    // nested call must complete.
    pool.ParallelFor(8, [&](int i) { inner_total += i; });
  });
  EXPECT_EQ(inner_total.load(), 4 * (8 * 7 / 2));
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int) { FAIL(); });
}

}  // namespace
}  // namespace mrvd
