#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace mrvd {

namespace {
thread_local bool t_on_worker_thread = false;
thread_local int t_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  if (num_threads_ <= 1) return;
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::HardwareThreads() {
  // mrvd-lint: allow(hardware-concurrency) — this wrapper IS the one
  // sanctioned read; everything else calls it
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

int ThreadPool::CurrentWorkerIndex() { return t_worker_index; }

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (workers_.empty() || t_on_worker_thread) {
    task();  // inline (or nested) execution; the future carries exceptions
    return future;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1 || t_on_worker_thread) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic self-scheduling: workers (and this thread) pull the next index,
  // so uneven task costs balance out. Exceptions are collected per index
  // and the lowest-index one rethrown for determinism.
  auto next = std::make_shared<std::atomic<int>>(0);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  auto run_indices = [&errors, next, n, &fn] {
    for (int i = next->fetch_add(1); i < n; i = next->fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<size_t>(i)] = std::current_exception();
      }
    }
  };
  int helpers = std::min(n, num_threads_) - 1;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(helpers));
  for (int h = 0; h < helpers; ++h) futures.push_back(Submit(run_indices));
  run_indices();
  for (auto& f : futures) f.get();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ThreadPool::WorkerLoop(int worker_index) {
  t_on_worker_thread = true;
  t_worker_index = worker_index;
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      // Manual wait loop instead of the predicate overload: the analysis
      // cannot follow guarded reads into a predicate lambda (see mutex.h).
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace mrvd
