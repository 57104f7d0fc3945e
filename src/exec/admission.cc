#include "exec/admission.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>

#include "common/fault_injection.h"

namespace fgac::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Waiters poll cancellation at this granularity while queued; shorter
/// deadlines are honored exactly via wait_until.
constexpr std::chrono::milliseconds kCancelPoll{20};

}  // namespace

AdmissionOptions AdmissionOptions::Resolved() const {
  AdmissionOptions out = *this;
  if (const char* env = std::getenv("FGAC_ADMISSION_QUEUE")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') out.max_queue = static_cast<size_t>(v);
  }
  return out;
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         const common::MemoryTracker* tracker)
    : options_(options.Resolved()), tracker_(tracker) {}

AdmissionController::~AdmissionController() { Shutdown(); }

size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& w : queue_) {
    if (w->state == WaitState::kWaiting) ++n;
  }
  return n;
}

uint64_t AdmissionController::RetryAfterMsLocked() const {
  // Expected time until a slot frees for a NEW arrival: the backlog ahead
  // of it (running + queued), served at EWMA pace by max_concurrent lanes.
  size_t waiting = 0;
  for (const auto& w : queue_) {
    if (w->state == WaitState::kWaiting) ++waiting;
  }
  size_t lanes = std::max<size_t>(1, options_.max_concurrent);
  uint64_t backlog = running_.load(std::memory_order_relaxed) + waiting + 1;
  uint64_t us = ewma_service_us_ * backlog / lanes;
  return std::clamp<uint64_t>(us / 1000, 1, 60000);
}

Status AdmissionController::ShedStatus(const char* reason,
                                       uint64_t retry_ms) const {
  return Status::Overloaded(std::string("server overloaded (") + reason +
                            "); retry after " + std::to_string(retry_ms) +
                            "ms");
}

Status AdmissionController::Admit(const AdmissionRequest& request,
                                  AdmissionTicket* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return Status::Cancelled("admission controller shut down");
  }
  // Reject before doing work: a query already past its deadline can only
  // waste the capacity the live ones are queuing for.
  if (request.deadline.has_value() && Clock::now() >= *request.deadline) {
    rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
    return Status::Timeout("query deadline expired before admission");
  }
  // Global memory pressure sheds ARRIVALS: in-flight queries keep their
  // slots (and their charges drain the pressure); new work is turned away
  // until usage falls below the soft limit.
  if (tracker_ != nullptr && tracker_->overloaded()) {
    shed_memory_.fetch_add(1, std::memory_order_relaxed);
    return ShedStatus("global memory pressure", RetryAfterMsLocked());
  }
  bool queue_empty = true;
  for (const auto& w : queue_) {
    if (w->state == WaitState::kWaiting) {
      queue_empty = false;
      break;
    }
  }
  if (options_.max_concurrent == 0 ||
      (queue_empty &&
       running_.load(std::memory_order_relaxed) < options_.max_concurrent)) {
    running_.fetch_add(1, std::memory_order_relaxed);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    *out = AdmissionTicket(this, Clock::now());
    return Status::OK();
  }

  // Slot unavailable: join the bounded wait queue (or shed).
  Status injected = FGAC_FAULT_CHECK("admission.enqueue");
  if (!injected.ok()) return injected;
  size_t waiting = 0;
  for (const auto& w : queue_) {
    if (w->state == WaitState::kWaiting) ++waiting;
  }
  if (waiting >= options_.max_queue) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    return ShedStatus("admission queue full", RetryAfterMsLocked());
  }

  auto self = std::make_shared<Waiter>();
  queue_.push_back(self);
  Clock::time_point enqueued_at = Clock::now();
  // Every exit from the wait loop below accounts the time spent queued.
  struct WaitAccounting {
    AdmissionController* c;
    Clock::time_point t0;
    ~WaitAccounting() {
      uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - t0)
              .count());
      c->queue_wait_us_.fetch_add(us, std::memory_order_relaxed);
    }
  } wait_accounting{this, enqueued_at};
  uint64_t depth = 0;
  for (const auto& w : queue_) {
    if (w->state == WaitState::kWaiting) ++depth;
  }
  uint64_t seen = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > seen && !queue_high_water_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }

  for (;;) {
    Clock::time_point wake_at = Clock::now() + kCancelPoll;
    if (request.deadline.has_value()) {
      wake_at = std::min(wake_at, *request.deadline);
    }
    wake_.wait_until(lock, wake_at,
                     [&] { return self->state != WaitState::kWaiting; });
    switch (self->state) {
      case WaitState::kAdmitted:
        *out = AdmissionTicket(this, Clock::now());
        return Status::OK();
      case WaitState::kShutdown:
        return Status::Cancelled(
            "query cancelled: admission controller shut down");
      case WaitState::kWaiting:
      case WaitState::kLeft:
        break;
    }
    if (request.deadline.has_value() && Clock::now() >= *request.deadline) {
      self->state = WaitState::kLeft;  // no slot was granted
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      return Status::Timeout("query deadline expired while queued");
    }
    if (request.guard != nullptr && request.guard->cancelled()) {
      self->state = WaitState::kLeft;
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      return Status::Cancelled("query cancelled while queued for admission");
    }
  }
}

void AdmissionController::DispatchLocked() {
  while (!queue_.empty()) {
    if (queue_.front()->state != WaitState::kWaiting) {
      queue_.pop_front();  // tombstone left by an expired/cancelled waiter
      continue;
    }
    if (options_.max_concurrent != 0 &&
        running_.load(std::memory_order_relaxed) >= options_.max_concurrent) {
      return;
    }
    std::shared_ptr<Waiter> next = queue_.front();
    queue_.pop_front();
    next->state = WaitState::kAdmitted;
    running_.fetch_add(1, std::memory_order_relaxed);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    wake_.notify_all();
  }
}

void AdmissionController::ReleaseSlot(Clock::time_point admitted_at) {
  std::lock_guard<std::mutex> lock(mu_);
  running_.fetch_sub(1, std::memory_order_relaxed);
  uint64_t service_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            admitted_at)
          .count());
  ewma_service_us_ = (7 * ewma_service_us_ + std::max<uint64_t>(1, service_us)) / 8;
  DispatchLocked();
}

void AdmissionController::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  shutdown_ = true;
  for (const auto& w : queue_) {
    if (w->state == WaitState::kWaiting) {
      w->state = WaitState::kShutdown;
      cancelled_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  queue_.clear();
  wake_.notify_all();
}

void AdmissionTicket::Release() {
  if (controller_ == nullptr) return;
  controller_->ReleaseSlot(admitted_at_);
  controller_ = nullptr;
}

int64_t RetryAfterHintMs(const Status& status) {
  const std::string& msg = status.message();
  const std::string key = "retry after ";
  size_t pos = msg.rfind(key);
  if (pos == std::string::npos) return -1;
  pos += key.size();
  size_t end = pos;
  while (end < msg.size() && std::isdigit(static_cast<unsigned char>(msg[end]))) {
    ++end;
  }
  if (end == pos || msg.compare(end, 2, "ms") != 0) return -1;
  return std::stoll(msg.substr(pos, end - pos));
}

}  // namespace fgac::exec
