// Fixed-size worker pool for the flow's deterministic parallelism.
//
// The determinism contract every user of this pool relies on
// (tests/determinism_test.cc): a parallel_for computes the same function
// regardless of how many threads execute it. That is achieved by
// construction, not by luck — each index writes only to index-private
// state, and all cross-index reductions happen sequentially, in index
// order, on the calling thread after the loop completes. Which worker
// runs which index is unspecified and must never matter.
//
// A pool of 1 thread is degenerate and spawns no workers at all: submit()
// runs the task inline on the calling thread and parallel_for becomes a
// plain sequential loop, so `--threads 1` is bit-for-bit the serial flow.
// A count of 0 (or less) means hardware_threads(), as FlowOptions::threads
// = 0 does; it is degenerate only on a 1-CPU host.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace nanomap {

class ThreadPool {
 public:
  // num_threads <= 0 selects hardware_threads(). A resolved count of 1
  // creates a degenerate pool that executes everything inline.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // std::thread::hardware_concurrency() with a floor of 1.
  static int hardware_threads();

  // True when called from one of *this* pool's workers.
  bool on_worker_thread() const;

  // Enqueues one task. Degenerate pools run it inline before returning
  // (the future is already ready); otherwise workers drain the queue in
  // FIFO submission order. Exceptions surface through the future.
  std::future<void> submit(std::function<void()> fn);

  // Runs fn(0), ..., fn(n-1) and blocks until every index finished.
  // Every index is attempted even if another index throws; afterwards the
  // exception of the *lowest* failing index is rethrown, so error
  // reporting is thread-count independent too. The calling thread
  // participates in the work. Reentrant calls from a worker thread (or
  // any call on a degenerate pool) run the loop inline.
  void parallel_for(int n, const std::function<void(int)>& fn);

 private:
  struct ForState;

  void worker_loop();
  static void run_sequential(int n, const std::function<void(int)>& fn);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Convenience: parallel_for through `pool` when one is supplied, plain
// sequential loop when pool is null. All flow stages take an optional
// pool so library users that never touch threading keep the serial path.
inline void pool_for_each(ThreadPool* pool, int n,
                          const std::function<void(int)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (int i = 0; i < n; ++i) fn(i);
  }
}

// How a total thread budget is split across concurrent jobs (the
// explorer's candidate chains): `jobs` chains get their own top-level
// pool slots and each job's inner flow stages run on `threads_per_job`
// threads. Never zero on either axis; a 1-thread budget degenerates to
// one inline job with inline stages, which is exactly the serial flow.
struct PoolSlice {
  int jobs = 1;
  int threads_per_job = 1;
};

inline PoolSlice slice_pool(int total_threads, int num_jobs) {
  PoolSlice s;
  if (total_threads < 1) total_threads = 1;
  if (num_jobs < 1) num_jobs = 1;
  s.jobs = total_threads < num_jobs ? total_threads : num_jobs;
  s.threads_per_job = total_threads / s.jobs;
  if (s.threads_per_job < 1) s.threads_per_job = 1;
  return s;
}

}  // namespace nanomap
