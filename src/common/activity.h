#ifndef FGAC_COMMON_ACTIVITY_H_
#define FGAC_COMMON_ACTIVITY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fgac::common {

/// Where an in-flight statement currently is. Stamped lock-free by the
/// executing thread, read by snapshots and the watchdog.
enum class StatementPhase : uint32_t {
  kQueued = 0,    // waiting for an admission slot
  kValidity = 1,  // validity check / rewrite decision
  kRewrite = 2,   // Truman rewrite / plan preparation
  kExec = 3,      // executing pipelines
  kFinished = 4,
};

const char* StatementPhaseName(StatementPhase phase);

namespace activity_internal {
/// Shared per-session accumulator: statements hold a reference so cache
/// hits / completions attribute to the right session even while the
/// registry map churns.
struct SessionRec {
  std::string session_id;
  std::string user;
  bool explicit_open = false;
  std::atomic<uint64_t> in_flight{0};
  std::atomic<uint64_t> statements_run{0};
  std::atomic<uint64_t> cache_hits{0};
};
}  // namespace activity_internal

/// Live progress counters for one statement's pipeline DAGs. Written by
/// the scheduler (DagOptions::progress), read by fgac_activity snapshots
/// and the stall watchdog. Plain relaxed atomics: per-field values never
/// tear; cross-field consistency is monitoring-grade.
struct DagProgress {
  std::atomic<uint64_t> sets_total{0};
  std::atomic<uint64_t> sets_done{0};
  /// Wall-time attribution per task: time between a task entering the
  /// pool's queue and a worker popping it vs time spent running the task.
  std::atomic<uint64_t> queue_wait_us{0};
  std::atomic<uint64_t> run_us{0};
};

class ActivityRegistry;

/// One in-flight statement's live record. The executing thread stamps the
/// phase and guard charges with relaxed atomics (no locks on the statement
/// path); snapshot readers and the watchdog only ever read whole atomic
/// values, so a concurrent stamp never tears a snapshot.
class StatementActivity {
 public:
  uint64_t seq() const { return seq_; }
  const std::string& session_id() const { return session_id_; }
  const std::string& user() const { return user_; }
  const std::string& statement() const { return statement_; }

  void set_phase(StatementPhase p) {
    phase_.store(static_cast<uint32_t>(p), std::memory_order_release);
  }
  StatementPhase phase() const {
    return static_cast<StatementPhase>(
        phase_.load(std::memory_order_acquire));
  }

  /// Copies the statement's guard charges so far. Called at phase
  /// transitions and completion — the registry never holds a pointer into
  /// the (stack-owned) QueryGuard itself.
  void StampGuard(uint64_t rows, uint64_t bytes) {
    guard_rows_.store(rows, std::memory_order_relaxed);
    guard_bytes_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t guard_rows() const {
    return guard_rows_.load(std::memory_order_relaxed);
  }
  uint64_t guard_bytes() const {
    return guard_bytes_.load(std::memory_order_relaxed);
  }

  void set_admission_wait_us(uint64_t us) {
    admission_wait_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t admission_wait_us() const {
    return admission_wait_us_.load(std::memory_order_relaxed);
  }

  /// Wall time of the validity check and of plan execution, stamped when
  /// each phase ends (the audit event copies them at completion).
  void set_validity_us(uint64_t us) {
    validity_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t validity_us() const {
    return validity_us_.load(std::memory_order_relaxed);
  }
  void set_exec_us(uint64_t us) {
    exec_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t exec_us() const { return exec_us_.load(std::memory_order_relaxed); }

  /// The statement's deadline (from its QueryLimits timeout), 0 if none.
  /// The watchdog scales this by its deadline factor to decide stalls.
  void set_deadline_us(uint64_t us) {
    deadline_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t deadline_us() const {
    return deadline_us_.load(std::memory_order_relaxed);
  }

  /// Notes a statement-cache (verdict or Truman-plan) hit for the session.
  void NoteCacheHit();

  uint64_t elapsed_us() const;

  DagProgress& progress() { return progress_; }
  const DagProgress& progress() const { return progress_; }

  /// Watchdog bookkeeping: one stall report per statement.
  bool TryMarkStalled() {
    return !stall_reported_.exchange(true, std::memory_order_acq_rel);
  }

 private:
  friend class ActivityRegistry;

  StatementActivity(uint64_t seq, std::string session_id, std::string user,
                    std::string statement,
                    std::shared_ptr<activity_internal::SessionRec> session);

  const uint64_t seq_;
  const std::string session_id_;
  const std::string user_;
  const std::string statement_;
  const std::chrono::steady_clock::time_point started_;
  std::shared_ptr<activity_internal::SessionRec> session_;

  std::atomic<uint32_t> phase_{static_cast<uint32_t>(StatementPhase::kQueued)};
  std::atomic<uint64_t> guard_rows_{0};
  std::atomic<uint64_t> guard_bytes_{0};
  std::atomic<uint64_t> admission_wait_us_{0};
  std::atomic<uint64_t> validity_us_{0};
  std::atomic<uint64_t> exec_us_{0};
  std::atomic<uint64_t> deadline_us_{0};
  std::atomic<bool> stall_reported_{false};
  DagProgress progress_;
};

/// Row of the fgac_sessions system table.
struct SessionActivitySnapshot {
  std::string session_id;
  std::string user;
  bool active = false;  // at least one in-flight statement
  uint64_t in_flight = 0;
  uint64_t statements_run = 0;  // completed statements
  uint64_t cache_hits = 0;      // statement-cache hits attributed here
  std::string current_statement;  // oldest in-flight statement, if any
  uint64_t current_elapsed_us = 0;
};

/// Row of the fgac_activity system table.
struct StatementActivitySnapshot {
  uint64_t seq = 0;
  std::string session_id;
  std::string user;
  std::string statement;
  StatementPhase phase = StatementPhase::kQueued;
  uint64_t elapsed_us = 0;
  uint64_t admission_wait_us = 0;
  uint64_t guard_rows = 0;
  uint64_t guard_bytes = 0;
  uint64_t pipelines_total = 0;
  uint64_t pipelines_done = 0;
  uint64_t queue_wait_us = 0;
  uint64_t run_us = 0;
};

/// Live registry of sessions and in-flight statements behind fgac_sessions
/// / fgac_activity. Session records are opened explicitly by the server's
/// ConnectionManager and implicitly by any SessionContext that runs a
/// statement outside a server session (implicit records disappear when
/// their last statement finishes; explicit ones persist until
/// CloseSession).
///
/// Locking: one registry mutex guards the two maps and is only taken at
/// statement begin/end, session open/close, and snapshot time — phase /
/// guard / progress stamping on the statement path is pure atomics on the
/// StatementActivity handle.
class ActivityRegistry {
 public:
  ActivityRegistry() = default;
  ActivityRegistry(const ActivityRegistry&) = delete;
  ActivityRegistry& operator=(const ActivityRegistry&) = delete;

  void OpenSession(const std::string& session_id, const std::string& user);
  void CloseSession(const std::string& session_id);

  /// Registers one in-flight statement (implicitly opening a session
  /// record if needed). The handle stays valid after EndStatement; only
  /// the registry's index entry is dropped.
  std::shared_ptr<StatementActivity> BeginStatement(
      const std::string& session_id, const std::string& user,
      const std::string& statement);
  void EndStatement(const std::shared_ptr<StatementActivity>& activity);

  std::vector<SessionActivitySnapshot> SnapshotSessions() const;
  std::vector<StatementActivitySnapshot> SnapshotStatements() const;
  /// Live handles of the in-flight statements (the watchdog reads the
  /// atomics directly and marks stalls on the shared record).
  std::vector<std::shared_ptr<StatementActivity>> SnapshotHandles() const;

  uint64_t sessions_open() const;
  uint64_t statements_active() const;
  uint64_t statements_begun() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Longest-running in-flight statement right now, 0 when idle.
  uint64_t MaxStatementElapsedUs() const;

 private:
  /// Statement text clip for the registry (full text lives in the audit
  /// log); bounds fgac_sessions / fgac_activity memory.
  static constexpr size_t kMaxStatementBytes = 512;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<activity_internal::SessionRec>>
      sessions_;
  std::map<uint64_t, std::shared_ptr<StatementActivity>> statements_;
  std::atomic<uint64_t> next_seq_{0};
};

}  // namespace fgac::common

#endif  // FGAC_COMMON_ACTIVITY_H_
