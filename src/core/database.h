#ifndef FGAC_CORE_DATABASE_H_
#define FGAC_CORE_DATABASE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/activity.h"
#include "common/audit.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/session_context.h"
#include "core/statement_cache.h"
#include "core/update_auth.h"
#include "core/validity.h"
#include "core/validity_trace.h"
#include "core/watchdog.h"
#include "exec/admission.h"
#include "exec/exec_stats.h"
#include "optimizer/optimizer.h"
#include "sql/ast.h"
#include "storage/database_state.h"
#include "storage/relation.h"

namespace fgac::core {

/// Result of one statement execution.
struct ExecResult {
  /// Populated for SELECT.
  storage::Relation relation;
  /// Populated for DML.
  int64_t affected_rows = 0;
  /// Populated for Non-Truman SELECTs (the validity verdict that admitted
  /// the query).
  ValidityReport validity;
  /// True when the validity verdict came from the statement cache.
  bool validity_from_cache = false;
  /// True when the Truman-rewritten plan of a prepared execution came from
  /// the statement cache (the rewriter did not run for this call).
  bool truman_plan_from_cache = false;
  /// True when the Non-Truman validity test blew its budget and the answer
  /// was produced by the Truman rewriter instead (DegradePolicy::kTruman):
  /// the result is sound but FILTERED — it may reflect only the data the
  /// user's policy views expose, not the query's literal answer.
  bool degraded_to_truman = false;
  /// Informational message for DDL.
  std::string message;
  /// Audit trail of the validity decision (rule firings, probe batches,
  /// cache consultation, verdict). Null unless the session enabled
  /// profiling (SessionContext::set_profile) or EXPLAIN ANALYZE ran.
  std::shared_ptr<ValidityTrace> trace;
  /// Per-operator execution counters for the executed plan. Null unless
  /// profiling was enabled, like `trace`.
  std::shared_ptr<exec::ExecStats> exec_stats;
};

/// Profiling sinks for one SELECT. Callers that need the trace/stats even
/// when the statement FAILS (EXPLAIN ANALYZE of a rejected query) pass
/// their own instance; the sinks survive the error return.
struct QueryProfile {
  std::shared_ptr<ValidityTrace> trace;
  std::shared_ptr<exec::ExecStats> stats;
};

/// Execution tuning knobs.
struct DatabaseOptions {
  /// Reuse validity verdicts through the statement cache (Section 5.6
  /// optimization).
  bool enable_validity_cache = true;
  /// Threads for morsel-driven parallel execution of SELECT plans and for
  /// batched validity probes. 1 = serial (the default: results are
  /// identical either way, so parallelism is strictly an opt-in speedup).
  /// A session can override per-query via SessionContext::exec_parallelism.
  size_t parallelism = 1;
  /// Validity engine configuration.
  ValidityOptions validity;
  /// Expansion budget for cost-based optimization of the executed plan
  /// (kept smaller than the validity engine's, which also hosts views).
  optimizer::ExpandOptions exec_expand;
  /// Default per-query guardrails (deadline, row/memory budgets, Truman
  /// degradation policy). Unlimited by default; a session can override via
  /// SessionContext::set_query_limits.
  common::QueryLimits limits;
  /// Bound on the statement cache of verdicts and Truman plans, split
  /// across its shards and LRU-evicted per shard beyond that. Each shard
  /// keeps at least one entry, so the cache holds up to
  /// max(statement_cache_capacity, StatementCache::kShards) entries.
  size_t statement_cache_capacity = StatementCache::kDefaultMaxEntries;
  /// Security audit log configuration (ring size, sink file, fsync policy).
  /// Enabled by default: every statement executed through Execute /
  /// ExecuteAsAdmin / ExecuteScript emits one AuditEvent.
  common::AuditOptions audit;
  /// Process-wide budget on query-time memory, charged at the real
  /// allocation points (chunk materialization, hash-join builds, sort and
  /// distinct buffers, memo expansion); table storage is not counted.
  /// soft_limit trips admission-time shedding; hard_limit aborts the
  /// charging query with kResourceExhausted. 0 = unlimited.
  common::MemoryTracker::Limits memory;
  /// Admission control in front of the scheduler: bounded deadline-aware
  /// wait queue, load shedding with retry-after hints. Disabled by default
  /// (max_concurrent = 0 admits everything immediately).
  exec::AdmissionOptions admission;
  /// Stall watchdog: background sampler raising watchdog.* gauges and
  /// "stalled" audit events for statements that exceed N x their deadline
  /// without observable progress.
  WatchdogOptions watchdog;
};

/// The embedded database facade tying every subsystem together: SQL in,
/// relations out, with fine-grained access control enforced per session
/// (None / Truman / Non-Truman, paper Sections 3-4).
class Database {
 public:
  Database();
  explicit Database(DatabaseOptions options);
  /// Joins the watchdog thread before any subsystem it samples dies.
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes one statement under `ctx`'s enforcement mode.
  Result<ExecResult> Execute(std::string_view sql, const SessionContext& ctx);
  /// Same, for a statement the caller already parsed from `sql`; the text
  /// is what the audit event records.
  Result<ExecResult> Execute(const sql::Stmt& stmt, std::string_view sql,
                             const SessionContext& ctx);

  /// Executes a ';'-separated script as the administrator (no enforcement).
  /// Stops at the first error.
  Status ExecuteScript(std::string_view sql);

  /// Admin-mode single statement.
  Result<ExecResult> ExecuteAsAdmin(std::string_view sql);

  /// Runs only the Non-Truman validity test for a SELECT, without executing
  /// it: the same check a SELECT runs on a verdict-cache miss, under the
  /// session's guard (limits and cancel token), so a tripped token fails
  /// kCancelled and a blown deadline kTimeout. Bypasses the verdict cache
  /// and admission control, and never degrades to Truman.
  Result<ValidityReport> CheckQueryValidity(std::string_view sql,
                                            const SessionContext& ctx);

  /// PREPARE: binds `stmt`'s body under `ctx` with positional placeholders
  /// ($1..$n) held open, validates that they are numbered contiguously
  /// from 1, and returns the handle. Registry ownership is the caller's —
  /// server sessions keep their own name -> statement maps, which is what
  /// scopes EXECUTE to the preparing session. Audited as one statement.
  Result<std::shared_ptr<PreparedStatement>> Prepare(
      const sql::PrepareStmt& stmt, const SessionContext& ctx);

  /// EXECUTE: evaluates the argument expressions (constants and session
  /// parameters only), substitutes them into the prepared plan, and runs
  /// the full enforcement pipeline with the statement-cache fast path: a
  /// steady-state re-execution skips the Truman rewriter / validity
  /// checker entirely. Audited as one statement.
  Result<ExecResult> ExecutePrepared(
      const std::shared_ptr<PreparedStatement>& prep,
      const std::vector<sql::ExprPtr>& args, const SessionContext& ctx);

  /// EXPLAIN [ANALYZE] EXECUTE <name>(args): renders the prepared
  /// statement's parameterized plan, and with ANALYZE actually runs the
  /// execution (full enforcement + statement-cache fast path) and appends
  /// the same report as an ad-hoc EXPLAIN ANALYZE (see Explain). `prep` is
  /// the session's registered statement for stmt.execute->name; resolution
  /// is the caller's job because registries are per connection. Audited as
  /// one statement.
  Result<ExecResult> ExplainPrepared(
      const sql::ExplainStmt& stmt,
      const std::shared_ptr<PreparedStatement>& prep,
      const SessionContext& ctx);

  /// Appends an audit event for a statement resolved entirely in the
  /// server session layer (DEALLOCATE, EXECUTE of an unknown name): every
  /// statement a session accepts leaves exactly one audit record, whether
  /// or not it reached the engine.
  void AuditSessionStatement(const SessionContext& ctx,
                             const std::string& statement, const Status& st);

  /// Verifies that every declared inclusion dependency and foreign key
  /// holds on the current data (useful after bulk loads).
  Status VerifyConstraints() const;

  // Accessors for tests, benches and examples.
  catalog::Catalog& catalog() { return catalog_; }
  const catalog::Catalog& catalog() const { return catalog_; }
  storage::DatabaseState& state() { return state_; }
  const storage::DatabaseState& state() const { return state_; }
  DatabaseOptions& options() { return options_; }
  /// The one verdict cache, for ad-hoc and prepared statements alike: the
  /// same object as statement_cache().
  StatementCache& validity_cache() { return stmt_cache_; }
  StatementCache& statement_cache() { return stmt_cache_; }
  /// The catalog's policy epoch (see catalog::Catalog::policy_epoch):
  /// advances on any table / view / constraint / grant / role /
  /// Truman-binding / principal change and fail-closed-invalidates every
  /// cached enforcement decision.
  uint64_t policy_epoch() const { return catalog_.policy_epoch(); }
  /// Data version behind cached conditional verdicts. Derived from the
  /// storage layer's per-table mutation counters, so direct TableData
  /// writers (bench/test seeding) are covered — not only DML routed
  /// through Execute().
  uint64_t data_version() const { return state_.DataVersion(); }

  /// Process metrics for this database: query/cache/guard counters and
  /// latency histograms, updated on every statement regardless of
  /// profiling (cheap relaxed atomics).
  common::MetricsRegistry& metrics() { return metrics_; }
  const common::MetricsRegistry& metrics() const { return metrics_; }

  /// The process-wide memory accountant behind DatabaseOptions::memory.
  /// Every QueryGuard created by Execute() charges into it.
  common::MemoryTracker& memory_tracker() { return tracker_; }
  const common::MemoryTracker& memory_tracker() const { return tracker_; }

  /// Admission controller gating SELECT execution (see
  /// DatabaseOptions::admission).
  exec::AdmissionController& admission() { return *admission_; }
  const exec::AdmissionController& admission() const { return *admission_; }

  /// Refreshes the export-time gauges (statement-cache occupancy, shared
  /// thread-pool stats, fault-injection hit counts, audit/trace counters)
  /// and returns the whole registry as one JSON object.
  std::string ExportMetricsJson();

  /// Same gauge refresh, rendered in Prometheus text exposition format
  /// (counters as _total + windowed _rate gauges, histograms as summaries
  /// with windowed quantiles).
  std::string ExportMetricsPrometheus();

  /// Live session / statement registry behind fgac_sessions and
  /// fgac_activity. The server's ConnectionManager opens and closes
  /// explicit session records; bare SessionContexts appear implicitly
  /// while they have statements in flight.
  common::ActivityRegistry& activity() { return activity_; }
  const common::ActivityRegistry& activity() const { return activity_; }

  /// The stall watchdog (see DatabaseOptions::watchdog). Tests that want
  /// deterministic sampling construct with watchdog.enabled = false and
  /// call watchdog().SampleOnce() directly.
  Watchdog& watchdog() { return *watchdog_; }
  const Watchdog& watchdog() const { return *watchdog_; }

  /// The security audit log: one event per executed statement, also served
  /// as the FGAC-governed `fgac_audit` system table and, filtered to
  /// statements of 1s or more, the `fgac_slow_queries` view.
  common::AuditLog& audit_log() { return *audit_; }
  const common::AuditLog& audit_log() const { return *audit_; }

  /// The span collector behind `fgac_spans`. Sessions opt in per session
  /// via SessionContext::set_trace(true).
  common::Tracer& tracer() { return tracer_; }
  const common::Tracer& tracer() const { return tracer_; }

  /// Every retained span as one Chrome-trace / Perfetto JSON document.
  std::string ExportTraceJson() const { return tracer_.ToChromeTraceJson(); }

  /// Binds a SELECT under `ctx` to a canonical logical plan (exposed for
  /// benches/tests that drive the optimizer directly).
  Result<algebra::PlanPtr> BindQuery(const sql::SelectStmt& stmt,
                                     const SessionContext& ctx) const;

 private:
  /// The one audit envelope: opens the statement's audit event and
  /// activity record, runs `body(&event)` (returning a Result), and
  /// finishes the event with its outcome. Defined and used in
  /// database.cc only.
  template <typename Body>
  auto Audited(const SessionContext& ctx, std::string text, Body body);

  /// `audit` (may be null) is the in-flight statement's audit event; the
  /// SELECT path fills verdict / rules / probes / trace id into it.
  Result<ExecResult> ExecuteStmt(const sql::Stmt& stmt,
                                 const SessionContext& ctx,
                                 common::AuditEvent* audit);
  /// `profile` may be null; see RunSelect.
  Result<ExecResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                   const SessionContext& ctx,
                                   QueryProfile* profile,
                                   common::AuditEvent* audit);

  /// Statement-cache identity of one SELECT inside RunSelect: the cache
  /// keys (statement fingerprint and canonical text; session-parameter and
  /// parameter+argument fingerprints) and the argument values. An ad-hoc
  /// Non-Truman SELECT is a prepared statement without parameters: the
  /// concrete plan's fingerprint, no arguments, no parameterized plan.
  /// Null for ad-hoc None and Truman statements, which use no cache.
  struct PreparedRun {
    uint64_t stmt_fp = 0;
    uint64_t params_fp = 0;
    uint64_t exec_fp = 0;
    const std::string* text = nullptr;
    /// Evaluated EXECUTE arguments in placeholder order.
    std::vector<Value> args;
    /// Set for prepared statements only: the parameterized plan and the
    /// argument bindings, so the Truman branch can rewrite once per
    /// (principal, statement, session params) and specialize per call.
    const algebra::PlanPtr* parameterized = nullptr;
    const std::map<std::string, Value>* bindings = nullptr;
  };

  /// The post-bind SELECT pipeline: guard + admission, then the statement
  /// state (see StatementState), then the enforcement switch (None /
  /// Truman / Non-Truman with caching), then optimized parallel execution
  /// over that state. `plan` is fully concrete (no open
  /// placeholders). Validity and execution time are stamped on the
  /// statement's activity record. Trace and stats are collected into
  /// `profile` when given (EXPLAIN ANALYZE keeps them after a failure),
  /// else into a local profile when the session profiles, and attached to
  /// the returned ExecResult; either way they are rendered into `audit`
  /// on every exit path.
  Result<ExecResult> RunSelect(const algebra::PlanPtr& plan,
                               const SessionContext& ctx,
                               QueryProfile* profile,
                               common::AuditEvent* audit,
                               const PreparedRun* prep);

  /// Arms a statement's guard (built from the session's limits, else the
  /// database defaults) with the session's cancel token and the process
  /// memory account, and stamps its deadline on the statement's activity
  /// record. Given `ticket`, then waits for admission under that guard.
  Status ArmGuard(const SessionContext& ctx, common::QueryGuard* guard,
                  exec::AdmissionTicket* ticket);

  /// The one Truman step (paper Section 3): rewrites `plan` over the
  /// session's policy views and normalizes it, under a "truman.rewrite"
  /// span in `tctx` (may be null). A prepared identity (`prep` with a
  /// parameterized plan) rewrites the parameterized plan once per
  /// (principal, statement, session params) through the statement cache,
  /// setting `*from_cache`, and substitutes this call's arguments. Every
  /// other caller rewrites uncached.
  Result<algebra::PlanPtr> TrumanPlan(const algebra::PlanPtr& plan,
                                      const SessionContext& ctx,
                                      const PreparedRun* prep,
                                      const common::TraceContext* tctx,
                                      bool* from_cache);

  /// The one validity step (paper Sections 4-5), without the verdict
  /// cache: instantiates the session's authorization views and runs one
  /// ValidityChecker over `state` under `guard`, recording into `trace`
  /// and a "validity.check" span in `tctx` (each may be null), its probes
  /// dispatched as the session's DAGs. With `witness`, an acceptance also
  /// yields q' (Definition 4.1) there, or null when it has no direct
  /// rewriting.
  Result<ValidityReport> CheckValidity(const algebra::PlanPtr& plan,
                                       const SessionContext& ctx,
                                       const storage::DatabaseState& state,
                                       const common::QueryGuard* guard,
                                       ValidityTrace* trace,
                                       const common::TraceContext* tctx,
                                       algebra::PlanPtr* witness = nullptr);

  /// The one optimizer call: cost-based optimization of `plan` with row
  /// counts read from the statement state `state`.
  Result<optimizer::OptimizeResult> Optimize(
      const algebra::PlanPtr& plan, const storage::DatabaseState& state) const;

  Result<ExecResult> ExecutePreparedImpl(PreparedStatement& prep,
                                         const std::vector<sql::ExprPtr>& args,
                                         const SessionContext& ctx,
                                         QueryProfile* profile,
                                         common::AuditEvent* audit);
  Result<ExecResult> ExecuteInsert(const sql::InsertStmt& stmt,
                                   const SessionContext& ctx);
  Result<ExecResult> ExecuteUpdate(const sql::UpdateStmt& stmt,
                                   const SessionContext& ctx);
  Result<ExecResult> ExecuteDelete(const sql::DeleteStmt& stmt,
                                   const SessionContext& ctx);
  Result<ExecResult> ApplyCreateTable(const sql::CreateTableStmt& stmt);
  Result<ExecResult> ApplyCreateView(const sql::CreateViewStmt& stmt);
  Result<ExecResult> ApplyCreateInclusion(const sql::CreateInclusionStmt& stmt);
  Result<ExecResult> ApplyGrant(const sql::GrantStmt& stmt);
  /// The one EXPLAIN body, ad hoc (`prep` null) or for a prepared
  /// statement. Plain EXPLAIN renders the canonical and optimized plans
  /// (costed over the statement state) and the Truman rewrite or the
  /// validity verdict with its witness; EXPLAIN EXECUTE renders the
  /// parameterized plan. ANALYZE first runs the statement with profiling,
  /// sharing `audit`, and appends its report (cache provenance, verdict,
  /// per-operator stats, validity trace).
  Result<ExecResult> Explain(const sql::ExplainStmt& stmt,
                             PreparedStatement* prep,
                             const SessionContext& ctx,
                             common::AuditEvent* audit);
  Result<ExecResult> ApplyAuthorize(const sql::AuthorizeStmt& stmt);
  Result<ExecResult> ApplyDrop(const sql::DropStmt& stmt);

  /// Optimizes (see Optimize) and executes a plan over `state` through the
  /// morsel-driven parallel executor (serial when the resolved parallelism
  /// is 1). `guard` (may be null) limits the execution.
  Result<storage::Relation> RunPlan(const algebra::PlanPtr& plan,
                                    const storage::DatabaseState& state,
                                    const SessionContext& ctx,
                                    common::QueryGuard* guard,
                                    exec::ExecStats* stats = nullptr,
                                    const common::TraceContext* trace = nullptr);

  /// Stamps duration / status / error / rows_out / default verdict into
  /// `ev`, copies the phase split and guard charges from the statement's
  /// activity record, and appends it to the audit log (no-op when auditing
  /// is off).
  void FinishAudit(common::AuditEvent* ev, const Status& st, int64_t rows_out,
                   std::chrono::steady_clock::time_point t0);

  /// Creates the fgac_ system tables (audit, spans, sessions, activity,
  /// statement cache), their per-user and admin/auditor authorization
  /// views, grants and Truman views, and the fgac_slow_queries view over
  /// fgac_audit. Runs once in the constructor, before auditing starts.
  void BootstrapSystemTables();

  /// The one state a SELECT reads, from its validity probes to its last
  /// scan: the live state with a private snapshot of each fgac_ table among
  /// `tables` (the bound plan's base tables) layered on top, built from
  /// that table's registry (the audit log's retained tail, the tracer's
  /// span buffer, the activity registry, the statement-cache shards). The
  /// live fgac_ tables stay empty, so no SELECT writes shared storage.
  /// Fails only under fault injection ("introspect.snapshot").
  Result<storage::DatabaseState> StatementState(
      const std::vector<std::string>& tables);

  /// Mirrors pull-model subsystem stats into export-time gauges (shared by
  /// the JSON and Prometheus exports).
  void RefreshExportGauges();

  /// Validity options with the probe-parallelism default (0) resolved to
  /// this database's `parallelism` knob.
  ValidityOptions ResolvedValidityOptions() const;

  Status CheckRowConstraints(const catalog::TableSchema& schema,
                             const Row& row) const;
  Status CheckForeignKeys(const std::string& table, const Row& row) const;
  /// Refuses an UPDATE or DELETE that would break a key, before anything is
  /// applied. `rows` (ascending) are the rows written and `images` their
  /// new images, null for a DELETE; `assigned` are the UPDATE's target
  /// columns. A new image may not duplicate a primary key, and no row that
  /// references this table through a foreign key may lose its target
  /// (RESTRICT). Writes that touch no key column skip both checks.
  Status CheckKeysAfterWrite(const catalog::TableSchema& schema,
                             const std::vector<size_t>& rows,
                             const std::vector<Row>* images,
                             const std::vector<size_t>& assigned) const;

  DatabaseOptions options_;
  common::MemoryTracker tracker_;
  std::unique_ptr<exec::AdmissionController> admission_;
  catalog::Catalog catalog_;
  storage::DatabaseState state_;
  StatementCache stmt_cache_;
  common::MetricsRegistry metrics_;
  common::Tracer tracer_;
  /// Sessions + in-flight statements (fgac_sessions / fgac_activity).
  common::ActivityRegistry activity_;
  /// Constructed after BootstrapSystemTables so bootstrap DDL is not
  /// audited; null only during construction.
  std::unique_ptr<common::AuditLog> audit_;
  /// Flips on after bootstrap; from then on fgac_ objects are read-only.
  bool system_tables_ready_ = false;
  /// Declared last: the watchdog thread samples activity_ / metrics_ /
  /// admission_ and must be stopped (destroyed) before any of them.
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace fgac::core

#endif  // FGAC_CORE_DATABASE_H_
