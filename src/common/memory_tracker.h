#ifndef FGAC_COMMON_MEMORY_TRACKER_H_
#define FGAC_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace fgac::common {

/// Process-level memory accounting for one Database's query-time state:
/// every materialization point that already charges a QueryGuard (hash-join
/// builds, sort/distinct buffers, chunk materialization), plus the validity
/// checker's memo expansion, also charges here. Table storage is not
/// charged, so the account drains to zero when no statement runs.
/// Approximate by design — it bounds blow-ups, it is not an allocator.
///
/// Two limits form the hierarchy above the per-query QueryLimits:
///  - hard_limit_bytes: a Charge() that would cross it fails with
///    kResourceExhausted — the charging query unwinds through the existing
///    fail-closed path, exactly as if its own budget blew.
///  - soft_limit_bytes: crossing it does not fail charges; it flips
///    overloaded(), which the AdmissionController reads to shed NEW
///    arrivals with kOverloaded until usage drains below the limit.
/// Zero disables a limit. soft <= hard is the intended configuration but
/// is not enforced.
///
/// Thread-safe: all state is relaxed atomics plus one CAS loop for the
/// high-water mark. Releases must match charges; QueryGuard automates this
/// (it releases everything it forwarded when it is destroyed).
class MemoryTracker {
 public:
  struct Limits {
    /// Crossing it sheds new admissions (overloaded() turns true).
    uint64_t soft_limit_bytes = 0;
    /// Crossing it fails the charge with kResourceExhausted.
    uint64_t hard_limit_bytes = 0;
  };

  MemoryTracker() = default;
  explicit MemoryTracker(const Limits& limits) : limits_(limits) {}
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  const Limits& limits() const { return limits_; }

  /// Charges `n` bytes against the global budget. Fault site
  /// "memory.charge" fires first so tests can drive this error path
  /// deterministically. On failure nothing is charged.
  Status Charge(uint64_t n);

  /// Returns `n` bytes to the budget. Callers release exactly what they
  /// successfully charged.
  void Release(uint64_t n);

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  /// Charges denied by the hard limit (the injected-fault denials count
  /// too — the path is identical from the caller's perspective).
  uint64_t charges_denied() const {
    return denied_.load(std::memory_order_relaxed);
  }

  /// True while usage exceeds the soft limit: the admission controller
  /// sheds new queries until in-flight ones release their state.
  bool overloaded() const {
    return limits_.soft_limit_bytes > 0 &&
           used() > limits_.soft_limit_bytes;
  }

 private:
  Limits limits_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> high_water_{0};
  std::atomic<uint64_t> denied_{0};
};

}  // namespace fgac::common

#endif  // FGAC_COMMON_MEMORY_TRACKER_H_
