#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace fgac::common {

void FairTaskQueue::Push(uint64_t session, uint32_t weight,
                         std::function<void()> task) {
  auto [it, inserted] = sessions_.try_emplace(session);
  SessionQueue& q = it->second;
  q.weight = std::max<uint32_t>(1, weight);
  q.tasks.push_back(std::move(task));
  ++size_;
  // A session joins the rotation with its first queued task; its visit
  // starts with a full grant.
  if (inserted) rotation_.push_back(session);
}

bool FairTaskQueue::Pop(std::function<void()>* out) {
  if (rotation_.empty()) return false;
  const uint64_t key = rotation_.front();
  auto it = sessions_.find(key);
  SessionQueue& q = it->second;
  if (q.credits == 0) q.credits = q.weight;
  *out = std::move(q.tasks.front());
  q.tasks.pop_front();
  --size_;
  if (q.tasks.empty()) {
    // Nothing left: the session leaves the rotation until its next Push.
    rotation_.pop_front();
    sessions_.erase(it);
  } else if (--q.credits == 0) {
    // Grant spent: rotate to the next session with work.
    rotation_.pop_front();
    rotation_.push_back(key);
  }
  return true;
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

size_t ThreadPool::sessions_active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.sessions_active();
}

void ThreadPool::Submit(std::function<void()> task, uint64_t session,
                        uint32_t weight) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.Push(session, weight, std::move(task));
    if (queue_.size() > queue_high_water_.load(std::memory_order_relaxed)) {
      queue_high_water_.store(queue_.size(), std::memory_order_relaxed);
    }
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return shutdown_ || queue_.size() > 0; });
    std::function<void()> task;
    if (!queue_.Pop(&task)) return;  // shut down and fully drained
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    task();
    task = nullptr;  // release the task's captures outside the lock
    lock.lock();
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
