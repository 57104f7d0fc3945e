#ifndef FGAC_COMMON_THREAD_POOL_H_
#define FGAC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fgac::common {

/// A fixed-size work-stealing thread pool: one bounded-contention deque per
/// worker plus a global injection queue for external submitters. Workers
/// prefer their own deque (LIFO, so follow-up work stays cache-warm), then
/// the global queue, then steal from peers (FIFO, so they take the oldest —
/// coldest — work). Each deque is guarded by its own small mutex rather
/// than a lock-free structure: steals are rare enough that the mutex never
/// shows up in profiles, and TSan can verify the whole pool.
///
/// A task submitted from a pool worker lands on that worker's own deque;
/// peers pick it up by stealing. This is what lets the pipeline scheduler
/// (exec/scheduler.h) enqueue newly-runnable pipelines from completion
/// handlers without a dedicated dispatcher thread.
///
/// Tasks must never BLOCK on another task's completion (the pool has no
/// nested-wait support); submitting follow-up work and returning is fine,
/// submitting and waiting is not. The pipeline scheduler satisfies this by
/// construction: pipeline tasks only decrement dependency counters and
/// enqueue; the only blocking wait is on the query's caller thread, which
/// is never a pool worker.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks executed since construction.
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// Tasks a worker took from a peer's deque rather than its own or the
  /// global queue. A nonzero value is proof the stealing path is live; a
  /// value rivaling tasks_run() means submitters and executors are
  /// chronically different threads.
  uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

  /// Deepest the pool's pending-task count has ever been (submitted, not
  /// yet claimed, across the global queue and every worker deque). A
  /// persistent high-water near the total task count means the pool is
  /// saturated and submissions are piling up.
  uint64_t queue_depth_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }

  /// Currently pending (submitted, not yet claimed) tasks. Approximate by
  /// nature — it changes under the caller's feet — but exact when quiesced.
  size_t queue_depth() const { return pending_.load(std::memory_order_relaxed); }

  /// Enqueues one task for asynchronous execution. Callable from any
  /// thread, including pool workers (whose tasks go to their own deque).
  void Submit(std::function<void()> task);

  /// Runs all tasks and returns when every one has finished. The calling
  /// thread does not execute tasks; it blocks on a completion latch, so it
  /// must not itself be a pool worker (nested wait) and the pool must have
  /// at least one worker (the constructor guarantees it).
  void RunAll(std::vector<std::function<void()>> tasks);

  /// Process-wide pool sized for the host (at least 4 threads so that
  /// multi-threaded execution paths are genuinely concurrent — and
  /// observable by TSan — even on small CI machines). Created on first
  /// use and never resized; size: the FGAC_THREADS env var, else
  /// max(4, hardware_concurrency).
  static ThreadPool& Shared();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> dq;
  };

  void WorkerLoop(size_t self);

  /// Own deque (back) -> global queue (front) -> steal (peer front).
  bool TryGetTask(size_t self, std::function<void()>* out);

  void NotePending(size_t depth);

  std::vector<std::unique_ptr<WorkerQueue>> local_;
  /// Guards the global queue and the sleep predicate; pending_ is bumped
  /// under it so sleepers cannot miss a wakeup.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> global_;
  bool shutdown_ = false;
  std::atomic<size_t> pending_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  std::vector<std::thread> workers_;
};

}  // namespace fgac::common

#endif  // FGAC_COMMON_THREAD_POOL_H_
