#ifndef FGAC_COMMON_QUERY_GUARD_H_
#define FGAC_COMMON_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace fgac::common {

/// What the gateway does when the Non-Truman validity test (paper
/// Section 4-5) cannot finish within its budget: the principled choices
/// are to reject outright, or to fall back to the Truman model
/// (Section 3) — answer the query against the user's policy views and
/// label the result as filtered. Never hang, never crash.
enum class DegradePolicy {
  /// Budget exhaustion surfaces as kTimeout / kResourceExhausted.
  kReject,
  /// Re-run the query through the Truman rewriter; the (possibly
  /// misleading but access-control-sound) answer is flagged as filtered.
  kTruman,
};

/// Per-query resource limits. Zero means "unlimited" for every field, so
/// a default-constructed QueryLimits imposes nothing.
struct QueryLimits {
  /// Wall-clock deadline measured from QueryGuard construction.
  /// Microsecond granularity so tests can set deadlines that have
  /// deterministically expired by the first guard check.
  std::chrono::microseconds timeout{0};
  /// Budget on rows flowing out of pipeline sources and join/aggregate
  /// materialization points — a work bound, not a result-size cap
  /// (use LIMIT for that).
  uint64_t max_rows = 0;
  /// Budget on bytes of materialized execution state (hash-join builds,
  /// sort/distinct/aggregate buffers). Approximate by design: it bounds
  /// blow-ups, it is not an allocator.
  uint64_t max_memory_bytes = 0;
  /// Degradation policy when the *validity check* exhausts its budget.
  DegradePolicy degrade_policy = DegradePolicy::kReject;

  bool has_timeout() const { return timeout.count() > 0; }
};

/// Cooperative guardrail for one query: deadline, cancellation flag and
/// row/byte budget counters. Operators call Check() once per DataChunk
/// and Charge*() at materialization points; every call is cheap (atomic
/// loads, one clock read when a deadline is set) and thread-safe, so one
/// guard is shared by all morsel workers of a parallel plan.
///
/// Guards form a tree: a child guard (e.g. for a validity probe) inherits
/// its parent's cancellation and never outlives the parent's deadline,
/// but keeps its own row/byte budgets so a probe cannot eat the user
/// query's allowance.
class QueryGuard {
 public:
  QueryGuard() : QueryGuard(QueryLimits{}) {}
  explicit QueryGuard(const QueryLimits& limits,
                      const QueryGuard* parent = nullptr);
  ~QueryGuard();
  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  const QueryLimits& limits() const { return limits_; }

  /// Requests cooperative cancellation; safe from any thread. The query
  /// observes it at its next Check() and unwinds with kCancelled.
  void Cancel() { cancel_->store(true, std::memory_order_release); }

  /// Additionally observe an external token (e.g. a session-owned flag
  /// another thread flips). Not thread-safe against concurrent Check();
  /// attach before execution starts.
  void AttachExternalCancel(std::shared_ptr<std::atomic<bool>> token) {
    external_cancel_ = std::move(token);
  }

  bool cancelled() const;

  /// Deadline + cancellation check. Sticky: once it fails, it keeps
  /// failing, so late workers observing an already-tripped guard unwind
  /// with the same code.
  Status Check() const;

  /// Charges `n` rows against the row budget (then performs Check()).
  Status ChargeRows(uint64_t n);

  /// Charges `n` bytes of materialized state against the memory budget.
  /// When a MemoryTracker is attached (directly or inherited from the
  /// parent), the bytes are also charged globally — and released en bloc
  /// when this guard is destroyed, so query-lifetime state never outlives
  /// the query in the global account.
  Status ChargeBytes(uint64_t n);

  /// Attaches the process-wide memory account. Not thread-safe against
  /// concurrent Charge; attach before execution starts. Children created
  /// after attachment inherit it.
  void set_memory_tracker(MemoryTracker* tracker) { tracker_ = tracker; }
  MemoryTracker* memory_tracker() const { return tracker_; }

  uint64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  QueryLimits limits_;
  const QueryGuard* parent_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::shared_ptr<std::atomic<bool>> external_cancel_;
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
  MemoryTracker* tracker_ = nullptr;
  /// Bytes successfully forwarded to tracker_; released on destruction.
  std::atomic<uint64_t> tracker_charged_{0};
};

/// Guards are optional throughout the engine: a null guard means "no
/// limits" and costs one pointer compare.
inline Status GuardCheck(const QueryGuard* guard) {
  return guard == nullptr ? Status::OK() : guard->Check();
}
inline Status GuardChargeRows(QueryGuard* guard, uint64_t n) {
  return guard == nullptr ? Status::OK() : guard->ChargeRows(n);
}
inline Status GuardChargeBytes(QueryGuard* guard, uint64_t n) {
  return guard == nullptr ? Status::OK() : guard->ChargeBytes(n);
}

/// Rough per-row footprint of materialized Row state (vector header plus
/// `arity` Value slots); used by Charge-Bytes call sites so the memory
/// budget tracks the dominant term without instrumenting allocators.
uint64_t ApproxRowBytes(size_t arity);

}  // namespace fgac::common

#endif  // FGAC_COMMON_QUERY_GUARD_H_
