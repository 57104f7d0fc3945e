#ifndef FGAC_CORE_STATEMENT_CACHE_H_
#define FGAC_CORE_STATEMENT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "common/value.h"
#include "core/session_context.h"
#include "core/validity.h"
#include "sql/ast.h"

namespace fgac::core {

/// One server-side prepared statement: the parsed body plus the lazily
/// (re)bound parameterized plan. Owned by the preparing session via
/// shared_ptr, so DEALLOCATE can drop the registry entry while an in-flight
/// EXECUTE keeps the object alive and drains cleanly.
///
/// The bind state under `mu` is a cache: ExecutePrepared revalidates it
/// against the current policy epoch and session parameters (compared
/// exactly) and rebinds on any mismatch (fail-closed — a stale plan is
/// never executed).
struct PreparedStatement {
  std::string name;
  /// Canonical SQL of the body (printer-rendered), the full-text tiebreak
  /// behind the plan-fingerprint cache key.
  std::string text;
  std::shared_ptr<const sql::SelectStmt> select;
  /// Placeholder names in positional order ("1".."n"); EXECUTE argument i
  /// binds placeholder i+1.
  std::vector<std::string> placeholders;

  std::mutex mu;
  algebra::PlanPtr plan;  // parameterized: placeholders still unbound
  uint64_t plan_fp = 0;
  uint64_t policy_epoch = 0;
  std::shared_ptr<const SessionParams> session_params;
};

/// Exact equality of two session parameterizations, kind included: int 3
/// and double 3.0 differ, although they compare and hash equal as values.
bool SameParams(const SessionParams& a, const SessionParams& b);

/// Sharded per-principal enforcement cache (paper Section 5.6 taken to
/// steady state), and the engine's one validity-verdict cache: once a
/// (principal, statement) pair has been through the Truman rewriter or the
/// Non-Truman validity checker, re-executions skip that work entirely. An
/// ad-hoc SELECT is cached as a prepared statement without parameters.
///
/// Key = (principal, structural fingerprint of the bound plan —
/// parameterized for EXECUTE, concrete ad hoc), with the principal and the
/// canonical statement text stored alongside and compared on every hit — a
/// fingerprint collision between distinct statements or principals
/// degrades to a miss, never to a cross-statement reuse. Each entry
/// carries:
///   * Truman-rewritten parameterized plans, slotted by the
///     session-parameter fingerprint (the rewrite instantiates policy views
///     with session parameters, but is independent of EXECUTE arguments);
///   * Non-Truman validity verdicts, slotted by the (session params +
///     EXECUTE arguments) fingerprint, since the verdict may hinge on the
///     concrete constants. Each verdict stores the argument values; ad-hoc
///     verdicts store none, because their constants are in the text.
/// Every variant stores the session parameters it was computed for, and a
/// hit compares them (and a verdict's arguments) exactly: the fingerprint
/// only picks the slot, and a colliding slot is a miss.
///
/// Invalidation is fail-closed and two-level. The entry records the
/// catalog's policy epoch it was built under; a lookup under any other
/// epoch erases the whole entry and re-runs enforcement. Data-sensitive
/// verdicts (conditional or rejected) additionally record the data version
/// and are dropped when it advances.
/// Verdicts reached with the probe budget exhausted are never inserted.
///
/// Shard layout: kShards fixed shards, each a mutex + hash map + LRU list.
/// The shard index is the key hash's low bits, so concurrent sessions
/// executing different statements contend on different mutexes; the inner
/// variant maps are bounded (kMaxVariants) so one statement executed with
/// endless distinct arguments cannot grow an entry without bound. Each
/// shard keeps at least one entry, so the cache holds up to
/// max(max_entries, kShards) entries.
class StatementCache {
 public:
  static constexpr size_t kShards = 16;
  static constexpr size_t kDefaultMaxEntries = 4096;
  /// Bound on cached per-entry variants (Truman plans / verdicts).
  static constexpr size_t kMaxVariants = 64;

  explicit StatementCache(size_t max_entries = kDefaultMaxEntries);

  /// Identity + freshness of one cache consultation.
  struct Key {
    const std::string& user;
    uint64_t stmt_fp;
    const std::string& text;
    uint64_t policy_epoch;
    /// The session parameterization (SessionContext::shared_params),
    /// stored with each variant and compared exactly on every hit.
    const std::shared_ptr<const SessionParams>& params;
  };

  /// Returns the cached Truman-rewritten parameterized plan for the
  /// session parameters (slotted by their fingerprint), or nullptr.
  algebra::PlanPtr LookupTrumanPlan(const Key& key, uint64_t params_fp);
  void InsertTrumanPlan(const Key& key, uint64_t params_fp,
                        algebra::PlanPtr plan);

  /// Copies the cached verdict for the (params+args) fingerprint into
  /// `*out`; false on miss / staleness. `args` are the evaluated EXECUTE
  /// arguments (empty ad hoc); a verdict stored for other argument values
  /// is a miss.
  bool LookupVerdict(const Key& key, uint64_t exec_fp, uint64_t data_version,
                     ValidityReport* out, const std::vector<Value>& args = {});
  void InsertVerdict(const Key& key, uint64_t exec_fp, uint64_t data_version,
                     ValidityReport report, std::vector<Value> args = {});

  void Clear();
  size_t size() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Entries discarded because their policy epoch was stale (the
  /// fail-closed path).
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  /// Lookups that matched a fingerprint but not the principal, the
  /// statement text, the session parameters or the verdict's argument
  /// values.
  uint64_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }

  /// Per-shard counters behind the fgac_statement_cache system table: the
  /// same events as the global counters, attributed to the shard whose
  /// mutex was held when they happened.
  struct ShardStats {
    size_t shard = 0;
    size_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    uint64_t collisions = 0;
  };
  std::vector<ShardStats> SnapshotShards() const;

 private:
  struct CachedTrumanPlan {
    algebra::PlanPtr plan;
    std::shared_ptr<const SessionParams> params;
  };

  struct CachedVerdict {
    ValidityReport report;
    uint64_t data_version = 0;
    std::shared_ptr<const SessionParams> params;
    std::vector<Value> args;
  };

  struct Entry {
    std::string user;
    std::string text;
    uint64_t policy_epoch = 0;
    std::map<uint64_t, CachedTrumanPlan> truman_plans;
    std::map<uint64_t, CachedVerdict> verdicts;
    std::list<uint64_t>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    std::list<uint64_t> lru;  // front = most recently used
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> invalidations{0};
    std::atomic<uint64_t> collisions{0};
  };

  /// Shard + entry-map key for (user, stmt_fp).
  uint64_t EntryKey(const std::string& user, uint64_t stmt_fp) const;
  Shard& ShardFor(uint64_t entry_key);

  /// Finds a fresh entry matching the principal and text; erases stale
  /// ones. Returns nullptr on miss. Caller holds the shard mutex.
  Entry* FindFresh(Shard& shard, uint64_t entry_key, const Key& key);

  /// Finds-or-creates a fresh entry for inserts (a stale or colliding
  /// entry is replaced). Caller holds the shard mutex.
  Entry& UpsertEntry(Shard& shard, uint64_t entry_key, const Key& key);

  size_t max_per_shard_;
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> collisions_{0};
};

}  // namespace fgac::core

#endif  // FGAC_CORE_STATEMENT_CACHE_H_
