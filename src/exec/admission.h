#ifndef FGAC_EXEC_ADMISSION_H_
#define FGAC_EXEC_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/memory_tracker.h"
#include "common/query_guard.h"
#include "common/status.h"

namespace fgac::exec {

struct AdmissionOptions {
  /// Queries allowed past admission concurrently. 0 = unlimited (the
  /// controller still counts, still sheds on memory pressure, but never
  /// queues).
  size_t max_concurrent = 0;
  /// Bounded wait queue in front of the scheduler; an arrival finding it
  /// full is shed (the queue's FIFO order is preserved: work already
  /// waiting is older and closer to running). Overridable with
  /// FGAC_ADMISSION_QUEUE (see Resolved()).
  size_t max_queue = 64;

  /// Copy with the FGAC_ADMISSION_QUEUE environment override applied.
  AdmissionOptions Resolved() const;
};

/// Everything the controller needs to know about one arriving query.
struct AdmissionRequest {
  /// The query's wall-clock deadline, when it has one: a query that would
  /// start past it is rejected with kTimeout before doing any work.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Observed while queued (may be null): a cancelled session's query
  /// leaves the queue with kCancelled instead of occupying a slot.
  const common::QueryGuard* guard = nullptr;
};

class AdmissionController;

/// RAII admission slot: releasing it (destruction) frees the slot and
/// dispatches the next queued query. Move-only; a default-constructed
/// ticket holds nothing (queries that bypass admission).
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(AdmissionTicket&& other) noexcept { MoveFrom(other); }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { Release(); }

  bool held() const { return controller_ != nullptr; }
  void Release();

 private:
  friend class AdmissionController;
  AdmissionTicket(AdmissionController* controller,
                  std::chrono::steady_clock::time_point admitted_at)
      : controller_(controller), admitted_at_(admitted_at) {}
  void MoveFrom(AdmissionTicket& other) {
    controller_ = other.controller_;
    admitted_at_ = other.admitted_at_;
    other.controller_ = nullptr;
  }

  AdmissionController* controller_ = nullptr;
  std::chrono::steady_clock::time_point admitted_at_{};
};

/// Bounded, deadline-aware admission control in front of the scheduler:
/// the overload-shedding layer of the limit hierarchy (global MemoryTracker
/// soft limit -> shed admissions; hard limit / per-query QueryLimits ->
/// fail the charging query).
///
/// Admit() either grants a slot immediately, queues the caller (FIFO,
/// bounded), or sheds it:
///  - global memory pressure (tracker soft limit) sheds arrivals with
///    kOverloaded + a retry-after hint;
///  - a full queue sheds the arrival, also kOverloaded + retry-after;
///  - a query whose deadline expires before it would start is rejected
///    with kTimeout, before doing any work;
///  - a cancelled session's queued query leaves with kCancelled;
///  - Shutdown() drains every queued-but-unadmitted query with kCancelled
///    (nothing leaks: each waiter's Admit() frame returns).
///
/// The retry-after hint is derived from an EWMA of admitted-query service
/// times and the current backlog — "how long until a slot likely frees".
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options,
                               const common::MemoryTracker* tracker = nullptr);
  ~AdmissionController();
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  const AdmissionOptions& options() const { return options_; }

  /// Blocks until a slot is granted (ticket stored in `*out`) or the
  /// request is shed/rejected per the class contract. Fault site
  /// "admission.enqueue" fires when a request is about to join the wait
  /// queue. Must not be called from a pool worker thread.
  Status Admit(const AdmissionRequest& request, AdmissionTicket* out);

  /// Wakes every queued waiter with kCancelled and makes every later
  /// Admit() fail the same way. Idempotent.
  void Shutdown();

  // Counters (relaxed; exact when quiesced).
  uint64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  uint64_t shed_queue_full() const {
    return shed_queue_full_.load(std::memory_order_relaxed);
  }
  uint64_t shed_memory() const {
    return shed_memory_.load(std::memory_order_relaxed);
  }
  uint64_t rejected_deadline() const {
    return rejected_deadline_.load(std::memory_order_relaxed);
  }
  uint64_t cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  uint64_t queue_depth_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }
  /// Total wall-time requests spent in the wait queue (all exits: admitted,
  /// shed, expired, cancelled) — the admission side of the queue-wait vs
  /// run attribution surfaced by fgac_activity and the watchdog.
  uint64_t total_queue_wait_us() const {
    return queue_wait_us_.load(std::memory_order_relaxed);
  }
  size_t queue_depth() const;
  size_t running() const { return running_.load(std::memory_order_relaxed); }

 private:
  friend class AdmissionTicket;

  /// kLeft is the tombstone of a waiter that gave up (deadline or cancel).
  enum class WaitState { kWaiting, kAdmitted, kLeft, kShutdown };
  struct Waiter {
    WaitState state = WaitState::kWaiting;
  };

  /// Caller holds mu_. Grants slots to FIFO waiters while capacity allows.
  void DispatchLocked();
  /// Caller holds mu_. Computes the retry-after hint in milliseconds from
  /// the EWMA service time and the backlog ahead of a new arrival.
  uint64_t RetryAfterMsLocked() const;
  Status ShedStatus(const char* reason, uint64_t retry_ms) const;
  void ReleaseSlot(std::chrono::steady_clock::time_point admitted_at);

  const AdmissionOptions options_;
  const common::MemoryTracker* tracker_;

  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Waiter>> queue_;
  bool shutdown_ = false;
  /// EWMA of admitted-query service time in microseconds (alpha 1/8);
  /// seeded pessimistically so the first hints are not zero.
  uint64_t ewma_service_us_ = 1000;

  std::atomic<size_t> running_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_memory_{0};
  std::atomic<uint64_t> rejected_deadline_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  std::atomic<uint64_t> queue_wait_us_{0};
};

/// Parses the "retry after <n>ms" hint out of a kOverloaded status message.
/// Returns -1 when the status carries no hint.
int64_t RetryAfterHintMs(const Status& status);

}  // namespace fgac::exec

#endif  // FGAC_EXEC_ADMISSION_H_
