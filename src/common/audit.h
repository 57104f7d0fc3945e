#ifndef FGAC_COMMON_AUDIT_H_
#define FGAC_COMMON_AUDIT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fgac::common {

/// One security-audit record: who asked what, which enforcement decision
/// was made, what it cost, and how it ended. Emitted once per executed
/// statement — including rejected, degraded and failed ones, which are the
/// rows an auditor cares about most.
struct AuditEvent {
  /// Monotonic per-log sequence number, assigned at emission (gaps in the
  /// persisted stream therefore reveal exactly which events overflowed).
  uint64_t seq = 0;
  /// Wall-clock milliseconds since the Unix epoch.
  int64_t wall_ms = 0;
  /// Trace id of the statement's span tree (0 when tracing was off).
  uint64_t trace_id = 0;
  std::string user;
  std::string session;
  /// Enforcement mode the statement ran under: none/truman/non-truman.
  std::string mode;
  /// Statement text, possibly truncated to AuditOptions::max_statement_bytes.
  std::string statement;
  /// FNV-1a of the FULL statement text (untruncated), so identical
  /// statements correlate even when the stored text is clipped.
  uint64_t statement_hash = 0;
  /// Enforcement verdict: "unconditional" / "conditional" (Non-Truman
  /// acceptance), "rejected", "degraded_to_truman", "truman" (rewritten),
  /// "none" (unenforced), or "error" for non-authorization failures.
  std::string verdict;
  /// Rule-firing summary: the justification chain ("U1/U2", "C3a/C3b").
  std::string rules;
  /// C3/CAgg database probes the validity test executed.
  uint64_t probes = 0;
  /// Guard budget charged over the statement's lifetime.
  uint64_t guard_rows = 0;
  uint64_t guard_bytes = 0;
  int64_t duration_us = 0;
  /// Status code name: "ok", "not_authorized", "timeout", ...
  std::string status = "ok";
  /// Error message when the statement failed.
  std::string error;
  /// True when the Non-Truman verdict came from the statement cache.
  bool from_cache = false;
  /// SELECT result rows / DML affected rows.
  int64_t rows_out = 0;
  /// Where the time went, copied from the statement's activity record:
  /// admission-queue wait, validity check, execution, and the pipeline
  /// tasks' pool-queue wait and run time (summed across tasks).
  uint64_t admission_wait_us = 0;
  uint64_t validity_us = 0;
  uint64_t exec_us = 0;
  uint64_t queue_wait_us = 0;
  uint64_t run_us = 0;
  /// Rendered ValidityTrace and ExecStats; empty unless profiled.
  std::string trace;
  std::string stats;

  /// One JSON object (no trailing newline); every text field goes through
  /// the shared escaper, so arbitrary statement bytes yield valid JSON.
  std::string ToJson() const;
};

/// FNV-1a over the statement text — the hash stored in AuditEvent.
uint64_t AuditStatementHash(std::string_view statement);

/// Fixed-width (16 char) lowercase hex rendering of a statement hash —
/// used by both the JSON sink and the fgac_audit system table, so the two
/// grep the same.
std::string AuditHashHex(uint64_t hash);

/// Audit subsystem knobs (DatabaseOptions::audit).
struct AuditOptions {
  /// Master switch. Off = Append() is a no-op and no flusher thread runs.
  bool enabled = true;
  /// Ring-buffer slots between producers and the flusher; rounded up to a
  /// power of two. When the ring is full, new events are DROPPED (counted),
  /// never blocking the query path.
  size_t ring_capacity = 1024;
  /// Bounded in-memory tail of persisted events backing the `fgac_audit`
  /// system table; oldest evicted beyond this.
  size_t retain_events = 4096;
  /// JSON-lines sink file (appended). Empty = in-memory retention only.
  std::string sink_path;
  /// Durability policy for the sink: when true the flusher fsyncs after
  /// every drain cycle; when false the OS decides (fast, may lose the tail
  /// on power failure — not on process crash, the write() already landed).
  bool fsync_each_flush = false;
  /// Flusher wake-up cadence when no one nudges it.
  std::chrono::milliseconds flush_interval{20};
  /// Statement text stored per event; longer statements are clipped (the
  /// hash still covers the full text).
  size_t max_statement_bytes = 4096;
};

/// Durable, queryable record of enforcement decisions.
///
/// Producers (query threads) append through a bounded lock-free MPSC ring
/// (Vyukov bounded-queue protocol): an Append is two atomic ops plus the
/// event move, never takes a lock and never blocks — when the ring is full
/// the event is counted in events_dropped() and discarded, because an
/// audit stall must not become a query stall. A background flusher drains
/// the ring into (a) the bounded in-memory tail served to `fgac_audit` and
/// (b) the JSON-lines sink file, if configured.
///
/// Counter contract, relied on by tests and the metrics exporter: after
/// Flush() returns with no concurrent producers,
///     events_emitted() == events_persisted() + events_dropped().
class AuditLog {
 public:
  explicit AuditLog(AuditOptions options);
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;
  ~AuditLog();

  bool enabled() const { return options_.enabled; }
  const AuditOptions& options() const { return options_; }

  /// Emits one event. Lock-free, wait-free on the fast path; drops (and
  /// counts) when the ring is full. Safe from any number of threads.
  void Append(AuditEvent event);

  /// Blocks until every event emitted before this call is persisted or
  /// accounted as dropped. Safe from any thread (the draining itself stays
  /// on the flusher thread — single-consumer discipline).
  void Flush();

  uint64_t events_emitted() const {
    return emitted_.load(std::memory_order_acquire);
  }
  uint64_t events_persisted() const {
    return persisted_.load(std::memory_order_acquire);
  }
  uint64_t events_dropped() const {
    return dropped_.load(std::memory_order_acquire);
  }

  /// Copies the retained tail, oldest first (the `fgac_audit` backing).
  std::vector<AuditEvent> SnapshotRetained() const;

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    AuditEvent event;
  };

  void FlusherMain();
  /// Drains every ready cell; returns how many events were consumed.
  /// Flusher thread only (single consumer).
  size_t DrainOnce();

  AuditOptions options_;
  size_t capacity_ = 0;  // power of two
  size_t mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
  std::atomic<uint64_t> enqueue_pos_{0};
  uint64_t dequeue_pos_ = 0;  // flusher-private

  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> persisted_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable std::mutex retained_mu_;
  std::deque<AuditEvent> retained_;

  std::FILE* sink_ = nullptr;

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  std::condition_variable flush_done_cv_;
  bool stop_ = false;
  std::thread flusher_;
};

}  // namespace fgac::common

#endif  // FGAC_COMMON_AUDIT_H_
