// Reusable fixed-size worker pool. CampaignRunner runs a campaign's cells
// on one (CampaignOptions::num_threads); the engine itself runs every batch
// on one serial path and starts no thread.
//
// The pool is created once per campaign run and reused across its cells:
// submitting work never spawns threads. With `num_threads <= 1` no workers
// are started and every task runs inline on the caller's thread, so the
// serial path has zero threading overhead and the parallel code can be
// written against one interface.
#pragma once

#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mrvd {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; <= 1 means inline (no threads).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count the pool schedules onto (>= 1; 1 means inline execution).
  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

  /// The calling worker's index within its pool ([0, num_threads)), or -1
  /// when the caller is not a pool worker. Stable for the thread's
  /// lifetime; telemetry uses it to give trace threads human-readable
  /// names ("worker-3") without the pool depending on the telemetry layer.
  static int CurrentWorkerIndex();

  /// Enqueues `fn` (FIFO). The future rethrows any exception `fn` threw.
  /// Inline pools run `fn` before returning. So does a call made on a
  /// worker of any pool, here and in ParallelFor: blocking a worker on work
  /// that sits behind it in its own queue would deadlock the pool.
  std::future<void> Submit(std::function<void()> fn) MRVD_EXCLUDES(mu_);

  /// Runs fn(0..n-1), blocking until all complete. Iterations are spread
  /// over the workers; the first exception thrown (lowest index wins) is
  /// rethrown on the caller after every iteration has finished.
  void ParallelFor(int n, const std::function<void(int)>& fn);

 private:
  void WorkerLoop(int worker_index) MRVD_EXCLUDES(mu_);

  const int num_threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ MRVD_GUARDED_BY(mu_);
  bool stopping_ MRVD_GUARDED_BY(mu_) = false;
};

}  // namespace mrvd
