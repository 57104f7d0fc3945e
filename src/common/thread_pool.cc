#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace fgac::common {

namespace {

/// Which pool (if any) the current thread is a worker of, and its index.
/// Lets Submit route a worker's follow-up tasks to its own deque.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerIdentity t_worker;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  local_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    local_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (t_worker.pool == this) {
    WorkerQueue& q = *local_[t_worker.index];
    std::lock_guard<std::mutex> lock(q.mu);
    q.dq.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    global_.push_back(std::move(task));
  }
  {
    // pending_ moves under mutex_ on the submit side so a worker that just
    // evaluated the sleep predicate cannot miss this task.
    std::lock_guard<std::mutex> lock(mutex_);
    NotePending(pending_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  wake_.notify_one();
}

void ThreadPool::NotePending(size_t depth) {
  uint64_t d = depth;
  uint64_t seen = queue_high_water_.load(std::memory_order_relaxed);
  while (d > seen && !queue_high_water_.compare_exchange_weak(
                         seen, d, std::memory_order_relaxed)) {
  }
}

void ThreadPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  struct Latch {
    std::mutex m;
    std::condition_variable cv;
    size_t remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = tasks.size();
  for (std::function<void()>& task : tasks) {
    Submit([latch, task = std::move(task)] {
      task();
      std::lock_guard<std::mutex> lock(latch->m);
      if (--latch->remaining == 0) latch->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch->m);
  latch->cv.wait(lock, [&] { return latch->remaining == 0; });
}

bool ThreadPool::TryGetTask(size_t self, std::function<void()>* out) {
  // 1. Own deque, newest first: follow-up work a pipeline task just
  //    submitted is still cache-warm.
  {
    WorkerQueue& q = *local_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.dq.empty()) {
      *out = std::move(q.dq.back());
      q.dq.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 2. Global injection queue, oldest first (external FIFO fairness).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!global_.empty()) {
      *out = std::move(global_.front());
      global_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 3. Steal from a peer, oldest first (take the coldest work).
  for (size_t i = 1; i < local_.size(); ++i) {
    WorkerQueue& q = *local_[(self + i) % local_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.dq.empty()) {
      *out = std::move(q.dq.front());
      q.dq.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  t_worker.pool = this;
  t_worker.index = self;
  while (true) {
    std::function<void()> task;
    if (TryGetTask(self, &task)) {
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] {
      return shutdown_ || pending_.load(std::memory_order_relaxed) > 0;
    });
    if (shutdown_ && pending_.load(std::memory_order_relaxed) == 0) {
      return;  // shutdown and fully drained
    }
    // pending_ > 0: rescan. A peer may win the race for the task, in which
    // case the next wait simply resumes.
  }
}

namespace {

size_t ResolveSharedPoolSize() {
  if (const char* env = std::getenv("FGAC_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 1024) {
      return static_cast<size_t>(v);
    }
  }
  return std::max<size_t>(4, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(ResolveSharedPoolSize());
  return *pool;
}

}  // namespace fgac::common
