#ifndef FGAC_COMMON_THREAD_POOL_H_
#define FGAC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fgac::common {

/// Weighted-round-robin multiplexer of queued tasks across sessions — the
/// fairness core of the ThreadPool, standalone so its order is
/// unit-testable without threads. Push enqueues a task under its session;
/// Pop releases tasks in WRR order: each rotation visit grants a session up
/// to `weight` consecutive tasks, then moves to the next session with work.
/// One session flooding the queue therefore delays its own tasks, not
/// other sessions'.
///
/// Not synchronized: the pool guards its one instance with its mutex. Pop
/// returns false only when empty.
class FairTaskQueue {
 public:
  void Push(uint64_t session, uint32_t weight, std::function<void()> task);
  bool Pop(std::function<void()>* out);
  size_t size() const { return size_; }
  /// Sessions currently holding queued tasks.
  size_t sessions_active() const { return sessions_.size(); }

 private:
  struct SessionQueue {
    std::deque<std::function<void()>> tasks;
    uint32_t weight = 1;
    /// Tasks still grantable in the current rotation visit.
    uint32_t credits = 0;
  };

  std::unordered_map<uint64_t, SessionQueue> sessions_;
  /// Visit order; the front session is the current grantee.
  std::deque<uint64_t> rotation_;
  size_t size_ = 0;
};

/// A fixed-size thread pool whose one queue is a FairTaskQueue: workers
/// pop tasks in weighted-round-robin order across submitting sessions, so
/// concurrent sessions share workers by weight instead of by arrival
/// order. One mutex and one condition variable guard the queue; a worker
/// runs each task outside the lock.
///
/// Tasks must never BLOCK on another task's completion (the pool has no
/// nested-wait support); submitting follow-up work and returning is fine,
/// submitting and waiting is not. The pipeline scheduler satisfies this by
/// construction: pipeline tasks only decrement dependency counters and
/// submit; the only blocking wait is on the query's caller thread, which
/// is never a pool worker.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks executed since construction.
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// Deepest the queue has ever been (submitted, not yet popped). A
  /// persistent high-water near the total task count means the pool is
  /// saturated and submissions are piling up.
  uint64_t queue_depth_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }

  /// Currently queued (submitted, not yet popped) tasks.
  size_t queue_depth() const;
  /// Sessions with tasks queued right now.
  size_t sessions_active() const;

  /// Enqueues one task under `session` (0 = the shared anonymous bucket)
  /// with WRR `weight` and wakes one worker. Callable from any thread,
  /// including pool workers.
  void Submit(std::function<void()> task, uint64_t session = 0,
              uint32_t weight = 1);

  /// Process-wide pool sized for the host (at least 4 threads so that
  /// multi-threaded execution paths are genuinely concurrent — and
  /// observable by TSan — even on small CI machines). Created on first
  /// use and never resized; size: the FGAC_THREADS env var, else
  /// max(4, hardware_concurrency).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  FairTaskQueue queue_;
  bool shutdown_ = false;
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  std::vector<std::thread> workers_;
};

}  // namespace fgac::common

#endif  // FGAC_COMMON_THREAD_POOL_H_
