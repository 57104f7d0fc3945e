#include "core/database.h"

#include <algorithm>
#include <cstdio>
#include <cctype>
#include <optional>
#include <set>

#include <chrono>

#include "algebra/binder.h"
#include "algebra/normalize.h"
#include "algebra/plan_hash.h"
#include "catalog/type.h"
#include "core/auth_view.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/truman.h"
#include "exec/executor.h"
#include "exec/parallel.h"
#include "exec/row_finder.h"
#include "exec/scheduler.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace fgac::core {

using algebra::PlanPtr;
using catalog::TableSchema;
using storage::Relation;

namespace {

DatabaseOptions DefaultOptions() {
  DatabaseOptions o;
  o.exec_expand.max_passes = 8;
  o.exec_expand.max_exprs = 20000;
  return o;
}

/// FNV fingerprint of the session parameterization (name -> value, in the
/// map's sorted order) — the cache slot for $user-id-style session
/// parameters feeding view instantiation. The cache compares the map itself
/// on every hit.
uint64_t SessionParamsFingerprint(const SessionContext& ctx) {
  uint64_t fp = 1469598103934665603ULL;
  for (const auto& [name, value] : ctx.params()) {
    fp = fp * 1099511628211ULL ^ std::hash<std::string>()(name);
    fp = fp * 1099511628211ULL ^ value.Hash();
  }
  return fp;
}

SessionContext AdminContext() {
  SessionContext ctx("admin");
  ctx.set_mode(EnforcementMode::kNone);
  return ctx;
}

/// All fgac_-prefixed catalog objects (the audit/span tables and their
/// authorization views) are engine-owned and read-only to SQL.
bool IsSystemObject(const std::string& name) {
  return name.rfind("fgac_", 0) == 0;
}

/// Column values of the system-table snapshots.
template <typename T>
Value IntValue(T v) {
  return Value::Int(static_cast<int64_t>(v));
}

/// StatusCode rendered the way audit consumers grep it: "not_authorized",
/// "resource_exhausted", ... ("ok" for success).
std::string AuditStatusName(StatusCode code) {
  const std::string name = StatusCodeName(code);
  std::string out;
  for (size_t i = 0; i < name.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(name[i]);
    if (std::isupper(c)) {
      // Word boundary only after a lowercase letter ("NotAuthorized" ->
      // "not_authorized") — never inside an acronym ("OK" -> "ok").
      if (i > 0 && std::islower(static_cast<unsigned char>(name[i - 1]))) {
        out.push_back('_');
      }
      out.push_back(static_cast<char>(std::tolower(c)));
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

/// Seeds the audit event fields known before execution starts.
common::AuditEvent StartAudit(const SessionContext& ctx,
                              std::string statement) {
  common::AuditEvent ev;
  ev.user = ctx.user();
  ev.session = ctx.session_id();
  ev.mode = EnforcementModeName(ctx.mode());
  ev.statement_hash = common::AuditStatementHash(statement);
  ev.statement = std::move(statement);
  return ev;
}

/// The statement currently executing on this thread, for the enforcement
/// pipeline to stamp phases / progress into without threading a handle
/// through every signature. Set by ActivityScope; a nested statement
/// (EXPLAIN ANALYZE running its subject) shares the outer record.
thread_local common::StatementActivity* g_current_activity = nullptr;

/// RAII registration of one statement in the activity registry.
class ActivityScope {
 public:
  ActivityScope(common::ActivityRegistry& registry, const SessionContext& ctx,
                const std::string& statement)
      : registry_(registry) {
    if (g_current_activity == nullptr) {
      activity_ =
          registry_.BeginStatement(ctx.session_id(), ctx.user(), statement);
      g_current_activity = activity_.get();
    }
  }
  ~ActivityScope() {
    if (activity_ != nullptr) {
      registry_.EndStatement(activity_);
      g_current_activity = nullptr;
    }
  }
  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  common::ActivityRegistry& registry_;
  std::shared_ptr<common::StatementActivity> activity_;
};

/// The scheduler identity of a statement's DAGs, execution and validity
/// probes alike: the session keys the shared pool's weighted round-robin,
/// and progress lands on the statement's activity record.
exec::DagOptions DagOptionsFor(const SessionContext& ctx) {
  exec::DagOptions opts;
  opts.session_key = std::hash<std::string>{}(ctx.session_id());
  opts.weight = ctx.scheduler_weight();
  if (g_current_activity != nullptr) {
    opts.progress = &g_current_activity->progress();
  }
  return opts;
}

/// Rows a statement returned or changed, for its audit event.
int64_t RowsOut(const ExecResult& r) {
  return static_cast<int64_t>(r.relation.num_rows()) + r.affected_rows;
}
int64_t RowsOut(const std::shared_ptr<PreparedStatement>&) { return 0; }

/// The EXPLAIN line for a validity verdict.
std::string VerdictLine(const ValidityReport& v) {
  if (!v.valid) return "validity: REJECTED (" + v.reason + ")\n";
  return std::string("validity: ") +
         (v.unconditional ? "unconditionally" : "conditionally") +
         " valid via " + v.justification +
         (v.probe_budget_exhausted ? " [probe budget exhausted]" : "") + "\n";
}

/// Appends the EXPLAIN ANALYZE report for a completed run: cache provenance
/// (which enforcement work the statement cache skipped), the validity
/// verdict / rejection / degradation, row count, per-operator stats and the
/// validity trace.
void AppendAnalyzeReport(std::string* text, const SessionContext& ctx,
                         const Result<ExecResult>& run,
                         const QueryProfile& profile) {
  if (run.ok()) {
    const ExecResult& res = run.value();
    if (ctx.mode() == EnforcementMode::kTruman) {
      *text += std::string("truman rewrite: ") +
               (res.truman_plan_from_cache ? "statement-cache hit"
                                           : "rewritten this call") +
               "\n";
    } else if (ctx.mode() == EnforcementMode::kNonTruman) {
      if (res.degraded_to_truman) {
        *text += "validity: DEGRADED (" + res.validity.reason + ")\n";
      } else {
        *text += std::string("verdict source: ") +
                 (res.validity_from_cache ? "statement-cache hit"
                                          : "validity checker") +
                 "\n" + VerdictLine(res.validity);
      }
    }
    *text += "result: " + std::to_string(res.relation.num_rows()) +
             " row(s)\n";
  } else {
    *text += "validity: REJECTED (" + std::string(run.status().message()) +
             ")\n";
  }
  if (profile.stats != nullptr && profile.stats->executed_plan() != nullptr) {
    *text += profile.stats->Render();
  }
  if (profile.trace != nullptr && !profile.trace->events().empty()) {
    *text += "validity trace:\n" + profile.trace->ToText();
  }
}

/// Splits rendered EXPLAIN text into the single-column result shape.
ExecResult ExplainTextResult(const std::string& text) {
  ExecResult out;
  out.relation = storage::Relation({"explain"});
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      out.relation.AddRow({Value::String(line)});
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) out.relation.AddRow({Value::String(line)});
  return out;
}

}  // namespace

template <typename Body>
auto Database::Audited(const SessionContext& ctx, std::string text,
                       Body body) {
  auto t0 = std::chrono::steady_clock::now();
  common::AuditEvent ev = StartAudit(ctx, std::move(text));
  ActivityScope activity_scope(activity_, ctx, ev.statement);
  auto r = body(&ev);
  FinishAudit(&ev, r.status(), r.ok() ? RowsOut(r.value()) : 0, t0);
  return r;
}

Database::Database() : Database(DefaultOptions()) {}

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      tracker_(options_.memory),
      stmt_cache_(options_.statement_cache_capacity) {
  admission_ = std::make_unique<exec::AdmissionController>(
      options_.admission.Resolved(), &tracker_);
  // Let execution-time distinct elimination see primary keys.
  options_.exec_expand.table_pk_slots =
      [this](const std::string& table) -> std::vector<int> {
    const TableSchema* schema = catalog_.GetTable(table);
    if (schema == nullptr) return {};
    std::vector<int> out;
    for (size_t i : schema->primary_key()) out.push_back(static_cast<int>(i));
    return out;
  };
  // Bootstrap before the audit log exists so the system DDL itself does
  // not generate audit events (and before system_tables_ready_ flips the
  // fgac_ namespace read-only).
  BootstrapSystemTables();
  audit_ = std::make_unique<common::AuditLog>(options_.audit);
  system_tables_ready_ = true;
  // The stall watchdog starts last: its probes and stall callback touch the
  // audit log and admission controller, which now both exist.
  watchdog_ =
      std::make_unique<Watchdog>(options_.watchdog, &activity_, &metrics_);
  watchdog_->AddProbe("watchdog.scheduler_queue_depth", [] {
    return static_cast<int64_t>(common::ThreadPool::Shared().queue_depth());
  });
  watchdog_->AddProbe("watchdog.admission_queue_depth", [this] {
    return static_cast<int64_t>(admission_->queue_depth());
  });
  watchdog_->AddProbe("watchdog.admission_running", [this] {
    return static_cast<int64_t>(admission_->running());
  });
  watchdog_->set_on_stall([this](
                              const common::StatementActivitySnapshot& snap,
                              const std::string& reason) {
    if (audit_ == nullptr || !audit_->enabled()) return;
    common::AuditEvent ev;
    ev.user = snap.user;
    ev.session = snap.session_id;
    ev.mode = "watchdog";
    ev.statement = snap.statement;
    ev.statement_hash = common::AuditStatementHash(snap.statement);
    ev.verdict = "stalled";
    ev.rules = reason;
    ev.duration_us = static_cast<int64_t>(snap.elapsed_us);
    ev.guard_rows = snap.guard_rows;
    ev.guard_bytes = snap.guard_bytes;
    ev.status = "in_flight";
    audit_->Append(std::move(ev));
  });
  watchdog_->Start();
}

Database::~Database() {
  // Join the sampler before any member it reads is torn down.
  if (watchdog_ != nullptr) watchdog_->Stop();
}

Result<ExecResult> Database::Execute(std::string_view sql,
                                     const SessionContext& ctx) {
  Result<sql::StmtPtr> stmt = sql::Parser::ParseStatement(sql);
  if (!stmt.ok()) {
    AuditSessionStatement(ctx, std::string(sql), stmt.status());
    return stmt.status();
  }
  return Execute(*stmt.value(), sql, ctx);
}

Result<ExecResult> Database::Execute(const sql::Stmt& stmt,
                                     std::string_view sql,
                                     const SessionContext& ctx) {
  return Audited(ctx, std::string(sql), [&](common::AuditEvent* ev) {
    return ExecuteStmt(stmt, ctx, ev);
  });
}

Result<ExecResult> Database::ExecuteAsAdmin(std::string_view sql) {
  return Execute(sql, AdminContext());
}

Status Database::ExecuteScript(std::string_view sql) {
  FGAC_ASSIGN_OR_RETURN(std::vector<sql::StmtPtr> stmts,
                        sql::Parser::ParseScript(sql));
  SessionContext admin = AdminContext();
  for (const sql::StmtPtr& stmt : stmts) {
    // Each script statement is audited individually (the statement text is
    // re-rendered from the AST — the script's raw slicing is not kept).
    FGAC_RETURN_NOT_OK(Audited(admin, sql::StmtToSql(*stmt),
                               [&](common::AuditEvent* ev) {
                                 return ExecuteStmt(*stmt, admin, ev);
                               })
                           .status());
  }
  return Status::OK();
}

void Database::FinishAudit(common::AuditEvent* ev, const Status& st,
                           int64_t rows_out,
                           std::chrono::steady_clock::time_point t0) {
  if (audit_ == nullptr || !audit_->enabled()) return;
  ev->duration_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ev->status = AuditStatusName(st.code());
  if (!st.ok()) ev->error = st.message();
  if (st.ok()) ev->rows_out = rows_out;
  // The activity record is the one source of the phase split and guard
  // charges; a statement resolved in the session layer has none.
  if (const common::StatementActivity* act = g_current_activity) {
    ev->admission_wait_us = act->admission_wait_us();
    ev->validity_us = act->validity_us();
    ev->exec_us = act->exec_us();
    ev->queue_wait_us =
        act->progress().queue_wait_us.load(std::memory_order_relaxed);
    ev->run_us = act->progress().run_us.load(std::memory_order_relaxed);
    ev->guard_rows = act->guard_rows();
    ev->guard_bytes = act->guard_bytes();
  }
  if (ev->verdict.empty()) {
    // Paths that fill a verdict (the SELECT pipeline) already did; default
    // the rest from the outcome.
    if (st.ok()) {
      ev->verdict = "ok";
    } else if (st.code() == StatusCode::kNotAuthorized) {
      ev->verdict = "rejected";
    } else if (st.code() == StatusCode::kOverloaded) {
      // Load shedding is not an error in the query: the audit trail must
      // distinguish "we refused under load" from "it failed".
      ev->verdict = "shed";
    } else {
      ev->verdict = "error";
    }
  }
  audit_->Append(std::move(*ev));
}

Result<ExecResult> Database::ExecuteStmt(const sql::Stmt& stmt,
                                         const SessionContext& ctx,
                                         common::AuditEvent* audit) {
  switch (stmt.kind()) {
    case sql::StmtKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStmt&>(stmt), ctx,
                           /*profile=*/nullptr, audit);
    case sql::StmtKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(stmt), ctx);
    case sql::StmtKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStmt&>(stmt), ctx);
    case sql::StmtKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(stmt), ctx);
    case sql::StmtKind::kCreateTable:
      return ApplyCreateTable(static_cast<const sql::CreateTableStmt&>(stmt));
    case sql::StmtKind::kCreateView:
      return ApplyCreateView(static_cast<const sql::CreateViewStmt&>(stmt));
    case sql::StmtKind::kCreateInclusion:
      return ApplyCreateInclusion(
          static_cast<const sql::CreateInclusionStmt&>(stmt));
    case sql::StmtKind::kGrant:
      return ApplyGrant(static_cast<const sql::GrantStmt&>(stmt));
    case sql::StmtKind::kRevoke: {
      const auto& s = static_cast<const sql::RevokeStmt&>(stmt);
      FGAC_RETURN_NOT_OK(catalog_.RevokeView(s.object, s.grantee));
      ExecResult out;
      out.message = "revoked " + s.object + " from " + s.grantee;
      return out;
    }
    case sql::StmtKind::kExplain:
      return Explain(static_cast<const sql::ExplainStmt&>(stmt),
                     /*prep=*/nullptr, ctx, audit);
    case sql::StmtKind::kAuthorize:
      return ApplyAuthorize(static_cast<const sql::AuthorizeStmt&>(stmt));
    case sql::StmtKind::kDrop:
      return ApplyDrop(static_cast<const sql::DropStmt&>(stmt));
    case sql::StmtKind::kPrepare:
    case sql::StmtKind::kExecute:
    case sql::StmtKind::kDeallocate:
      // Prepared-statement state is per connection; the embedded facade has
      // none. Sessions from server::ConnectionManager route these to
      // Prepare() / ExecutePrepared() / their own registries.
      return Status::InvalidArgument(
          "prepared statements require a connection session "
          "(server::ConnectionManager)");
  }
  return Status::NotImplemented("unsupported statement kind");
}

Result<PlanPtr> Database::BindQuery(const sql::SelectStmt& stmt,
                                    const SessionContext& ctx) const {
  algebra::Binder::Options options;
  options.params = ctx.params();
  options.allow_access_params = false;
  algebra::Binder binder(catalog_, options);
  return binder.BindSelect(stmt);
}

Result<Relation> Database::RunPlan(const PlanPtr& plan,
                                   const storage::DatabaseState& state,
                                   const SessionContext& ctx,
                                   common::QueryGuard* guard,
                                   exec::ExecStats* stats,
                                   const common::TraceContext* trace) {
  FGAC_RETURN_NOT_OK(common::GuardCheck(guard));
  size_t threads = ctx.exec_parallelism() != 0 ? ctx.exec_parallelism()
                                               : options_.parallelism;
  FGAC_ASSIGN_OR_RETURN(optimizer::OptimizeResult best, Optimize(plan, state));
  if (stats != nullptr) stats->SetExecutedPlan(best.plan);
  return exec::ParallelExecutePlan(best.plan, state, threads, guard, stats,
                                   trace, DagOptionsFor(ctx));
}

Result<optimizer::OptimizeResult> Database::Optimize(
    const PlanPtr& plan, const storage::DatabaseState& state) const {
  auto row_count = [&state](const std::string& table) -> double {
    const storage::TableData* t = state.GetTable(table);
    return t == nullptr ? 1000.0 : static_cast<double>(t->num_rows());
  };
  return optimizer::Optimize(plan, options_.exec_expand, row_count);
}

void Database::RefreshExportGauges() {
  // Pull-model stats live in their owning subsystems; mirror them into
  // gauges at export time so one document covers everything.
  if (audit_ != nullptr) {
    metrics_.gauge("audit.events_emitted")
        .Set(static_cast<int64_t>(audit_->events_emitted()));
    metrics_.gauge("audit.events_persisted")
        .Set(static_cast<int64_t>(audit_->events_persisted()));
    metrics_.gauge("audit.events_dropped")
        .Set(static_cast<int64_t>(audit_->events_dropped()));
  }
  metrics_.gauge("trace.spans_recorded")
      .Set(static_cast<int64_t>(tracer_.spans_recorded()));
  metrics_.gauge("trace.spans_dropped")
      .Set(static_cast<int64_t>(tracer_.spans_dropped()));
  metrics_.gauge("statement_cache.hits")
      .Set(static_cast<int64_t>(stmt_cache_.hits()));
  metrics_.gauge("statement_cache.misses")
      .Set(static_cast<int64_t>(stmt_cache_.misses()));
  metrics_.gauge("statement_cache.evictions")
      .Set(static_cast<int64_t>(stmt_cache_.evictions()));
  metrics_.gauge("statement_cache.invalidations")
      .Set(static_cast<int64_t>(stmt_cache_.invalidations()));
  metrics_.gauge("statement_cache.collisions")
      .Set(static_cast<int64_t>(stmt_cache_.collisions()));
  metrics_.gauge("statement_cache.entries")
      .Set(static_cast<int64_t>(stmt_cache_.size()));
  common::ThreadPool& pool = common::ThreadPool::Shared();
  metrics_.gauge("thread_pool.tasks_run").Set(pool.tasks_run());
  metrics_.gauge("thread_pool.queue_depth_high_water")
      .Set(pool.queue_depth_high_water());
  metrics_.gauge("thread_pool.queue_depth")
      .Set(static_cast<int64_t>(pool.queue_depth()));
  exec::PipelineScheduler& sched = exec::PipelineScheduler::Shared();
  metrics_.gauge("scheduler.dags_executed")
      .Set(static_cast<int64_t>(sched.dags_executed()));
  metrics_.gauge("scheduler.tasks_dispatched")
      .Set(static_cast<int64_t>(sched.tasks_dispatched()));
  metrics_.gauge("scheduler.pipelines_completed")
      .Set(static_cast<int64_t>(sched.pipelines_completed()));
  metrics_.gauge("scheduler.pipelines_cancelled")
      .Set(static_cast<int64_t>(sched.pipelines_cancelled()));
  metrics_.gauge("scheduler.fair_sessions_active")
      .Set(static_cast<int64_t>(pool.sessions_active()));
  metrics_.gauge("memory.used").Set(static_cast<int64_t>(tracker_.used()));
  metrics_.gauge("memory.high_water")
      .Set(static_cast<int64_t>(tracker_.high_water()));
  metrics_.gauge("memory.charges_denied")
      .Set(static_cast<int64_t>(tracker_.charges_denied()));
  metrics_.gauge("admission.admitted")
      .Set(static_cast<int64_t>(admission_->admitted()));
  metrics_.gauge("admission.shed_queue_full")
      .Set(static_cast<int64_t>(admission_->shed_queue_full()));
  metrics_.gauge("admission.shed_memory")
      .Set(static_cast<int64_t>(admission_->shed_memory()));
  metrics_.gauge("admission.rejected_deadline")
      .Set(static_cast<int64_t>(admission_->rejected_deadline()));
  metrics_.gauge("admission.cancelled")
      .Set(static_cast<int64_t>(admission_->cancelled()));
  metrics_.gauge("admission.queue_depth")
      .Set(static_cast<int64_t>(admission_->queue_depth()));
  metrics_.gauge("admission.queue_depth_high_water")
      .Set(static_cast<int64_t>(admission_->queue_depth_high_water()));
  metrics_.gauge("admission.running")
      .Set(static_cast<int64_t>(admission_->running()));
  metrics_.gauge("memory.soft_limit")
      .Set(static_cast<int64_t>(tracker_.limits().soft_limit_bytes));
  metrics_.gauge("memory.hard_limit")
      .Set(static_cast<int64_t>(tracker_.limits().hard_limit_bytes));
  metrics_.gauge("admission.queue_wait_us")
      .Set(static_cast<int64_t>(admission_->total_queue_wait_us()));
  metrics_.gauge("scheduler.task_queue_wait_us")
      .Set(static_cast<int64_t>(sched.total_task_queue_wait_us()));
  metrics_.gauge("scheduler.task_run_us")
      .Set(static_cast<int64_t>(sched.total_task_run_us()));
  metrics_.gauge("sessions.open")
      .Set(static_cast<int64_t>(activity_.sessions_open()));
  metrics_.gauge("sessions.statements_active")
      .Set(static_cast<int64_t>(activity_.statements_active()));
  metrics_.gauge("sessions.statements_begun")
      .Set(static_cast<int64_t>(activity_.statements_begun()));
  for (const auto& [site, hits] :
       common::FaultInjector::Instance().AllHitCounts()) {
    metrics_.gauge("fault." + site).Set(hits);
  }
  // One watchdog pass guarantees the watchdog.* family (samples, stall
  // counters, depth probes, in-flight gauges) is present and current in
  // every export, even before the background thread's first tick.
  if (watchdog_ != nullptr) watchdog_->SampleOnce();
}

std::string Database::ExportMetricsJson() {
  RefreshExportGauges();
  return metrics_.ToJson();
}

std::string Database::ExportMetricsPrometheus() {
  RefreshExportGauges();
  return metrics_.ToPrometheus();
}

ValidityOptions Database::ResolvedValidityOptions() const {
  ValidityOptions v = options_.validity;
  if (v.probe_parallelism == 0) v.probe_parallelism = options_.parallelism;
  return v;
}

Result<ExecResult> Database::ExecuteSelect(const sql::SelectStmt& stmt,
                                           const SessionContext& ctx,
                                           QueryProfile* profile,
                                           common::AuditEvent* audit) {
  FGAC_ASSIGN_OR_RETURN(PlanPtr plan, BindQuery(stmt, ctx));
  if (ctx.mode() != EnforcementMode::kNonTruman) {
    return RunSelect(plan, ctx, profile, audit, /*prep=*/nullptr);
  }
  // Verdicts are cached for an ad-hoc SELECT as for a prepared statement
  // without parameters; its constants are part of the text.
  std::string text = sql::SelectToSql(stmt);
  PreparedRun run;
  run.stmt_fp = algebra::PlanFingerprint(plan);
  run.params_fp = SessionParamsFingerprint(ctx);
  run.exec_fp = run.params_fp;
  run.text = &text;
  return RunSelect(plan, ctx, profile, audit, &run);
}

Result<ExecResult> Database::RunSelect(const PlanPtr& plan,
                                       const SessionContext& ctx,
                                       QueryProfile* profile,
                                       common::AuditEvent* audit,
                                       const PreparedRun* prep) {
  using Clock = std::chrono::steady_clock;
  auto elapsed_ns = [](Clock::time_point t0) -> uint64_t {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  };
  metrics_.counter("queries.select").Increment();
  common::StatementActivity* act = g_current_activity;
  ValidityTrace* trace = nullptr;
  exec::ExecStats* stats = nullptr;
  QueryProfile session_profile;
  if (profile == nullptr && ctx.profile()) profile = &session_profile;
  if (profile != nullptr) {
    profile->trace = std::make_shared<ValidityTrace>();
    profile->stats = std::make_shared<exec::ExecStats>();
    trace = profile->trace.get();
    stats = profile->stats.get();
  }
  // Counts a guard trip (deadline / budget / cancel) exactly once per
  // query, whether it fired during the validity test or during execution.
  auto note_guard_trip = [this](const Status& st) {
    StatusCode code = st.code();
    if (code == StatusCode::kTimeout ||
        code == StatusCode::kResourceExhausted ||
        code == StatusCode::kCancelled) {
      metrics_.counter("guard.trips").Increment();
    }
  };

  // Per-query span tree: a "query" root span with validity / rewrite /
  // execution children. Off (all helpers no-op) unless the session opted
  // in via set_trace(true).
  common::TraceContext root_ctx;
  std::optional<common::ScopedSpan> query_span;
  common::TraceContext query_ctx;
  const common::TraceContext* tctx = nullptr;
  if (ctx.trace()) {
    root_ctx.tracer = &tracer_;
    root_ctx.trace_id =
        ctx.trace_id() != 0 ? ctx.trace_id() : tracer_.NewTraceId();
    root_ctx.user = ctx.user();
    query_span.emplace(&root_ctx, "query");
    query_span->set_detail(std::string("mode=") +
                           EnforcementModeName(ctx.mode()));
    query_ctx = query_span->ChildContext();
    tctx = &query_ctx;
    if (audit != nullptr) audit->trace_id = root_ctx.trace_id;
  }

  // One guard spans validity checking and execution.
  common::QueryGuard guard(ctx.query_limits().value_or(options_.limits));

  // On EVERY exit path — rejection, timeout, degradation, success — the
  // final guard charges land on the activity record (the audit event
  // copies them at completion), and a profiled statement's trace and
  // stats are rendered into its audit event.
  struct CompletionCapture {
    const common::QueryGuard& guard;
    common::StatementActivity* act;
    const QueryProfile* profile;
    common::AuditEvent* ev;
    ~CompletionCapture() {
      if (act != nullptr) {
        act->StampGuard(guard.rows_charged(), guard.bytes_charged());
      }
      if (profile == nullptr || ev == nullptr) return;
      if (!profile->trace->events().empty()) {
        ev->trace = profile->trace->ToText();
      }
      if (profile->stats->executed_plan() != nullptr) {
        ev->stats = profile->stats->Render();
      }
    }
  } completion_capture{guard, act, profile, audit};

  // Admission control happens BEFORE any heavy work. The ticket's scope
  // spans validity checking and execution.
  exec::AdmissionTicket admission_ticket;
  FGAC_RETURN_NOT_OK(ArmGuard(ctx, &guard, &admission_ticket));

  // The statement's one state, read by the validity probes and the
  // execution alike: fgac_ tables are private snapshots over the live
  // state, which no SELECT writes.
  const std::vector<std::string> tables = CollectBaseTables(plan);
  FGAC_ASSIGN_OR_RETURN(storage::DatabaseState state, StatementState(tables));

  ExecResult out;
  if (profile != nullptr) {
    out.trace = profile->trace;
    out.exec_stats = profile->stats;
  }

  PlanPtr to_run = plan;
  switch (ctx.mode()) {
    case EnforcementMode::kNone:
      if (audit != nullptr) audit->verdict = "none";
      break;
    case EnforcementMode::kTruman: {
      if (act != nullptr) act->set_phase(common::StatementPhase::kRewrite);
      FGAC_ASSIGN_OR_RETURN(to_run, TrumanPlan(plan, ctx, prep, tctx,
                                               &out.truman_plan_from_cache));
      if (out.truman_plan_from_cache && act != nullptr) act->NoteCacheHit();
      if (audit != nullptr) audit->verdict = "truman";
      break;
    }
    case EnforcementMode::kNonTruman: {
      if (act != nullptr) act->set_phase(common::StatementPhase::kValidity);
      auto validity_t0 = Clock::now();
      // The key covers everything the verdict depends on: the statement
      // (fingerprint, exact text and argument values) and the full session
      // parameterization (a $term or $user-location change re-instantiates
      // the views). It is read once, before the check, so a verdict is
      // stored under the policy epoch and data version it was computed
      // against: a change racing the check leaves it stale, never fresh.
      const StatementCache::Key key{ctx.user(), prep->stmt_fp, *prep->text,
                                    policy_epoch(), ctx.shared_params()};
      const uint64_t checked_data_version = data_version();
      bool cached = options_.enable_validity_cache &&
                    stmt_cache_.LookupVerdict(key, prep->exec_fp,
                                              checked_data_version,
                                              &out.validity, prep->args);
      if (cached) {
        out.validity_from_cache = true;
        if (act != nullptr) act->NoteCacheHit();
        metrics_.counter("validity.cache_hits").Increment();
        if (trace != nullptr) {
          ValidityTraceEvent e;
          e.kind = ValidityTraceEvent::Kind::kCacheHit;
          e.valid = out.validity.valid;
          e.unconditional = out.validity.unconditional;
          e.detail = out.validity.valid ? out.validity.justification
                                        : out.validity.reason;
          trace->Add(std::move(e));
        }
      } else {
        metrics_.counter("validity.cache_misses").Increment();
        if (trace != nullptr) {
          ValidityTraceEvent e;
          e.kind = ValidityTraceEvent::Kind::kCacheMiss;
          trace->Add(std::move(e));
        }
        Result<ValidityReport> verdict =
            CheckValidity(plan, ctx, state, &guard, trace, tctx);
        if (!verdict.ok()) {
          // A check that failed or blew its budget still spent this time.
          if (act != nullptr) {
            act->set_validity_us(elapsed_ns(validity_t0) / 1000);
          }
          StatusCode code = verdict.status().code();
          // kCancelled always propagates — the user asked to stop, not to
          // get a cheaper answer. Only blown budgets are degradable.
          bool budget_blown = code == StatusCode::kTimeout ||
                              code == StatusCode::kResourceExhausted;
          note_guard_trip(verdict.status());
          if (budget_blown && guard.limits().degrade_policy ==
                                  common::DegradePolicy::kTruman) {
            // Principled degradation (paper Section 3 vs 4): the validity
            // test could not finish within budget, so fall back to the
            // Truman rewriter — answer against the user's policy views and
            // flag the result as filtered. Sound (never reveals more than
            // the views), though possibly misleading; never cached as a
            // verdict. The rewrite's span carries the reason, so it opens
            // here and the rewrite runs uncached under it.
            common::ScopedSpan rewrite_span(tctx, "truman.rewrite");
            rewrite_span.set_detail("degraded: " + verdict.status().message());
            FGAC_ASSIGN_OR_RETURN(
                to_run, TrumanPlan(plan, ctx, /*prep=*/nullptr,
                                   /*tctx=*/nullptr, /*from_cache=*/nullptr));
            out.degraded_to_truman = true;
            out.validity = ValidityReport{};
            out.validity.reason =
                "degraded to Truman rewriting: " + verdict.status().message();
            metrics_.counter("queries.degraded_to_truman").Increment();
            if (audit != nullptr) {
              audit->verdict = "degraded_to_truman";
              audit->rules = verdict.status().message();
            }
            if (trace != nullptr) {
              ValidityTraceEvent e;
              e.kind = ValidityTraceEvent::Kind::kDegraded;
              e.detail = out.validity.reason;
              e.guard_rows = guard.rows_charged();
              e.guard_bytes = guard.bytes_charged();
              trace->Add(std::move(e));
            }
            break;
          }
          return verdict.status();
        }
        out.validity = std::move(verdict).value();
        metrics_.counter("validity.groups_pruned")
            .Increment(out.validity.groups_pruned);
        metrics_.counter("validity.exprs_skipped")
            .Increment(out.validity.exprs_skipped);
        // A verdict reached after the probe budget blew is sound to act on
        // once but must never be cached: with budget the check could have
        // proved more, and a cached entry would outlive the exhaustion.
        // data_version() does not cover the fgac_ snapshots, so a
        // statement reading one caches only an unconditional acceptance,
        // the one verdict that holds in every state.
        const bool state_independent =
            out.validity.valid && out.validity.unconditional;
        if (out.validity.probe_budget_exhausted) {
          metrics_.counter("validity.probe_budget_exhausted").Increment();
        } else if (options_.enable_validity_cache &&
                   (state_independent ||
                    std::none_of(tables.begin(), tables.end(),
                                 IsSystemObject))) {
          stmt_cache_.InsertVerdict(key, prep->exec_fp, checked_data_version,
                                    out.validity, prep->args);
        }
      }
      uint64_t validity_ns = elapsed_ns(validity_t0);
      metrics_.histogram("validity.check_us").Record(validity_ns / 1000);
      if (act != nullptr) act->set_validity_us(validity_ns / 1000);
      if (stats != nullptr) stats->set_validity_nanos(validity_ns);
      if (audit != nullptr) {
        audit->from_cache = out.validity_from_cache;
        audit->rules = out.validity.justification;
        audit->probes = out.validity.c3_probes;
        audit->verdict = !out.validity.valid        ? "rejected"
                         : out.validity.unconditional ? "unconditional"
                                                      : "conditional";
      }
      if (!out.validity.valid) {
        // The Non-Truman model rejects outright rather than silently
        // restricting the answer (Section 4).
        metrics_.counter("queries.rejected").Increment();
        return Status::NotAuthorized(out.validity.reason);
      }
      break;
    }
  }

  if (act != nullptr) {
    // Stamp the charges accumulated so far (validity probes) before the
    // phase flips — the watchdog's progress tuple sees both move together.
    act->StampGuard(guard.rows_charged(), guard.bytes_charged());
    act->set_phase(common::StatementPhase::kExec);
  }
  auto exec_t0 = Clock::now();
  Result<Relation> ran = [&] {
    common::ScopedSpan exec_span(tctx, "exec");
    common::TraceContext exec_ctx = exec_span.ChildContext();
    return RunPlan(to_run, state, ctx, &guard, stats,
                   tctx != nullptr ? &exec_ctx : nullptr);
  }();
  uint64_t exec_ns = elapsed_ns(exec_t0);
  metrics_.histogram("exec.run_us").Record(exec_ns / 1000);
  if (act != nullptr) act->set_exec_us(exec_ns / 1000);
  if (stats != nullptr) stats->set_exec_nanos(exec_ns);
  if (!ran.ok()) {
    note_guard_trip(ran.status());
    return ran.status();
  }
  out.relation = std::move(ran).value();
  // The optimizer strips display names; restore the user-visible ones.
  Relation named(algebra::OutputNames(*plan));
  named.mutable_rows() = std::move(out.relation.mutable_rows());
  out.relation = std::move(named);
  return out;
}

Status Database::ArmGuard(const SessionContext& ctx, common::QueryGuard* guard,
                          exec::AdmissionTicket* ticket) {
  guard->AttachExternalCancel(ctx.cancel_token());
  guard->set_memory_tracker(&tracker_);
  const common::QueryLimits& limits = guard->limits();
  common::StatementActivity* act = g_current_activity;
  if (act != nullptr && limits.has_timeout()) {
    act->set_deadline_us(static_cast<uint64_t>(limits.timeout.count()));
  }
  if (ticket == nullptr) return Status::OK();
  exec::AdmissionRequest req;
  auto t0 = std::chrono::steady_clock::now();
  if (limits.has_timeout()) req.deadline = t0 + limits.timeout;
  req.guard = guard;
  Status admitted = admission_->Admit(req, ticket);
  if (act != nullptr) {
    act->set_admission_wait_us(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  if (admitted.code() == StatusCode::kOverloaded) {
    metrics_.counter("queries.shed").Increment();
  }
  return admitted;
}

Result<PlanPtr> Database::TrumanPlan(const PlanPtr& plan,
                                     const SessionContext& ctx,
                                     const PreparedRun* prep,
                                     const common::TraceContext* tctx,
                                     bool* from_cache) {
  auto rewrite = [&](const PlanPtr& subject) -> Result<PlanPtr> {
    common::ScopedSpan rewrite_span(tctx, "truman.rewrite");
    FGAC_ASSIGN_OR_RETURN(PlanPtr raw, TrumanRewrite(subject, catalog_, ctx));
    return algebra::NormalizePlan(raw);
  };
  if (prep == nullptr || prep->parameterized == nullptr) return rewrite(plan);
  // Prepared fast path: the rewrite replaces base tables with
  // session-instantiated policy views and is independent of the EXECUTE
  // arguments, so the PARAMETERIZED rewritten plan is cached per
  // (principal, statement, session params) and only the cheap placeholder
  // substitution runs per call.
  const StatementCache::Key key{ctx.user(), prep->stmt_fp, *prep->text,
                                policy_epoch(), ctx.shared_params()};
  PlanPtr rewritten = stmt_cache_.LookupTrumanPlan(key, prep->params_fp);
  *from_cache = rewritten != nullptr;
  if (rewritten == nullptr) {
    FGAC_ASSIGN_OR_RETURN(rewritten, rewrite(*prep->parameterized));
    stmt_cache_.InsertTrumanPlan(key, prep->params_fp, rewritten);
  }
  if (prep->bindings->empty()) return rewritten;
  return algebra::NormalizePlan(
      algebra::BindPlanParams(rewritten, *prep->bindings));
}

Result<ValidityReport> Database::CheckValidity(
    const PlanPtr& plan, const SessionContext& ctx,
    const storage::DatabaseState& state, const common::QueryGuard* guard,
    ValidityTrace* trace, const common::TraceContext* tctx, PlanPtr* witness) {
  FGAC_ASSIGN_OR_RETURN(std::vector<InstantiatedView> views,
                        InstantiateAvailableViews(catalog_, ctx));
  ValidityChecker checker(catalog_, &state, ResolvedValidityOptions());
  checker.set_guard(guard);
  checker.set_trace(trace);
  checker.set_dag_options(DagOptionsFor(ctx));
  // The span covers exactly the inference work; rule firings and probe
  // batches nest under it.
  Result<ValidityReport> report = [&] {
    common::ScopedSpan validity_span(tctx, "validity.check");
    common::TraceContext validity_ctx = validity_span.ChildContext();
    if (tctx != nullptr) checker.set_span_context(&validity_ctx);
    return checker.Check(plan, views);
  }();
  if (witness != nullptr && report.ok() && report.value().valid) {
    Result<PlanPtr> q = checker.ExtractWitness();
    if (q.ok()) *witness = std::move(q).value();
  }
  return report;
}

Result<std::shared_ptr<PreparedStatement>> Database::Prepare(
    const sql::PrepareStmt& stmt, const SessionContext& ctx) {
  return Audited(ctx, sql::StmtToSql(stmt), [&](common::AuditEvent*)
                     -> Result<std::shared_ptr<PreparedStatement>> {
    auto prep = std::make_shared<PreparedStatement>();
    prep->name = stmt.name;
    prep->select = stmt.select;
    prep->text = sql::SelectToSql(*stmt.select);
    algebra::Binder::Options options;
    options.params = ctx.params();
    options.defer_unbound_params = true;
    algebra::Binder binder(catalog_, options);
    FGAC_ASSIGN_OR_RETURN(PlanPtr plan, binder.BindSelect(*stmt.select));
    // Placeholders must be exactly $1..$n: positional EXECUTE arguments
    // have no way to address a gap, and a non-numeric leftover is an
    // ordinary unbound parameter the ad-hoc path would also reject.
    std::vector<std::string> open = algebra::CollectPlanParams(plan);
    std::set<unsigned long> numbers;
    for (const std::string& name : open) {
      if (name.empty() ||
          name.find_first_not_of("0123456789") != std::string::npos) {
        return Status::BindError("unbound parameter $" + name +
                                 " in PREPARE (placeholders are $1..$n)");
      }
      numbers.insert(std::stoul(name));
    }
    unsigned long expect = 1;
    for (unsigned long n : numbers) {
      if (n != expect) {
        return Status::InvalidArgument(
            "PREPARE placeholders must be numbered contiguously from $1; "
            "missing $" + std::to_string(expect));
      }
      ++expect;
    }
    prep->placeholders.reserve(numbers.size());
    for (unsigned long n = 1; n <= numbers.size(); ++n) {
      prep->placeholders.push_back(std::to_string(n));
    }
    prep->plan = plan;
    prep->plan_fp = algebra::PlanFingerprint(plan);
    prep->policy_epoch = policy_epoch();
    prep->session_params = ctx.shared_params();
    metrics_.counter("prepared.prepares").Increment();
    return prep;
  });
}

Result<ExecResult> Database::ExecutePrepared(
    const std::shared_ptr<PreparedStatement>& prep,
    const std::vector<sql::ExprPtr>& args, const SessionContext& ctx) {
  if (prep == nullptr) {
    return Status::InvalidArgument("null prepared statement");
  }
  std::string text = "EXECUTE " + prep->name;
  if (!args.empty()) {
    text += " (";
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) text += ", ";
      text += sql::ExprToSql(args[i]);
    }
    text += ")";
  }
  return Audited(ctx, std::move(text), [&](common::AuditEvent* ev) {
    auto t0 = std::chrono::steady_clock::now();
    Result<ExecResult> r = ExecutePreparedImpl(*prep, args, ctx, nullptr, ev);
    metrics_.histogram("prepared.execute_us")
        .Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    return r;
  });
}

Result<ExecResult> Database::ExecutePreparedImpl(
    PreparedStatement& prep, const std::vector<sql::ExprPtr>& args,
    const SessionContext& ctx, QueryProfile* profile,
    common::AuditEvent* audit) {
  metrics_.counter("prepared.executes").Increment();
  if (args.size() != prep.placeholders.size()) {
    return Status::InvalidArgument(
        "prepared statement '" + prep.name + "' takes " +
        std::to_string(prep.placeholders.size()) + " argument(s), got " +
        std::to_string(args.size()));
  }
  // Arguments are constant expressions (literals, session $parameters,
  // arithmetic over them): bind them against an empty scope and fold.
  static const TableSchema kEmptySchema("", {});
  PreparedRun run;
  std::map<std::string, Value> bindings;
  uint64_t params_fp = SessionParamsFingerprint(ctx);
  uint64_t exec_fp = params_fp;
  for (size_t i = 0; i < args.size(); ++i) {
    FGAC_ASSIGN_OR_RETURN(
        algebra::ScalarPtr scalar,
        algebra::Binder::BindOverTable(args[i], kEmptySchema, ctx.params()));
    Row empty;
    FGAC_ASSIGN_OR_RETURN(Value v, algebra::EvalScalar(scalar, empty));
    exec_fp = exec_fp * 1099511628211ULL ^ v.Hash();
    bindings[prep.placeholders[i]] = v;
    run.args.push_back(std::move(v));
  }

  // Revalidate the bind-state cache: any catalog or session-param change
  // since the last execution forces a rebind (fail-closed; the verdict and
  // rewrite caches key on the epoch too, so their stale entries die with
  // it).
  PlanPtr parameterized;
  uint64_t stmt_fp = 0;
  {
    std::lock_guard<std::mutex> lock(prep.mu);
    uint64_t pe = policy_epoch();
    if (prep.plan == nullptr || prep.policy_epoch != pe ||
        !SameParams(*prep.session_params, ctx.params())) {
      algebra::Binder::Options options;
      options.params = ctx.params();
      options.defer_unbound_params = true;
      algebra::Binder binder(catalog_, options);
      FGAC_ASSIGN_OR_RETURN(PlanPtr plan, binder.BindSelect(*prep.select));
      prep.plan = std::move(plan);
      prep.plan_fp = algebra::PlanFingerprint(prep.plan);
      prep.policy_epoch = pe;
      prep.session_params = ctx.shared_params();
      metrics_.counter("prepared.rebinds").Increment();
    }
    parameterized = prep.plan;
    stmt_fp = prep.plan_fp;
  }

  PlanPtr concrete =
      bindings.empty()
          ? parameterized
          : algebra::NormalizePlan(
                algebra::BindPlanParams(parameterized, bindings));

  run.stmt_fp = stmt_fp;
  run.params_fp = params_fp;
  run.exec_fp = exec_fp;
  run.text = &prep.text;
  run.parameterized = &parameterized;
  run.bindings = &bindings;
  return RunSelect(concrete, ctx, profile, audit, &run);
}

void Database::AuditSessionStatement(const SessionContext& ctx,
                                     const std::string& statement,
                                     const Status& st) {
  auto t0 = std::chrono::steady_clock::now();
  common::AuditEvent ev = StartAudit(ctx, statement);
  FinishAudit(&ev, st, 0, t0);
}

Result<ExecResult> Database::ExplainPrepared(
    const sql::ExplainStmt& stmt,
    const std::shared_ptr<PreparedStatement>& prep,
    const SessionContext& ctx) {
  if (stmt.execute == nullptr) {
    return Status::InvalidArgument("not an EXPLAIN EXECUTE statement");
  }
  if (prep == nullptr) {
    return Status::InvalidArgument("unknown prepared statement '" +
                                   stmt.execute->name + "'");
  }
  return Audited(ctx, sql::StmtToSql(stmt), [&](common::AuditEvent* ev) {
    return Explain(stmt, prep.get(), ctx, ev);
  });
}

Result<ExecResult> Database::Explain(const sql::ExplainStmt& stmt,
                                     PreparedStatement* prep,
                                     const SessionContext& ctx,
                                     common::AuditEvent* audit) {
  if (prep == nullptr && stmt.execute != nullptr) {
    // EXPLAIN EXECUTE names a prepared statement, and registries are per
    // connection — only a server session can resolve the name.
    return Status::InvalidArgument(
        "EXPLAIN EXECUTE requires a connection session "
        "(server::ConnectionManager)");
  }
  // EXPLAIN ANALYZE runs the statement first, with profiling, so the report
  // reflects this call's bind state (a catalog or policy change rebinds a
  // prepared statement). A rejected query is a successful EXPLAIN — the
  // trace of WHY it was rejected is the whole point — so kNotAuthorized is
  // rendered, not propagated; real failures still propagate. The run
  // shares the EXPLAIN's audit event: the audit row shows the verdict /
  // probes of the analyzed statement under the EXPLAIN text.
  QueryProfile profile;
  Result<ExecResult> run = ExecResult{};
  if (stmt.analyze) {
    run = prep != nullptr ? ExecutePreparedImpl(*prep, stmt.execute->args,
                                                ctx, &profile, audit)
                          : ExecuteSelect(*stmt.select, ctx, &profile, audit);
    if (!run.ok() && run.status().code() != StatusCode::kNotAuthorized) {
      return run.status();
    }
  }
  std::string text;
  if (prep != nullptr) {
    text = "prepared statement: " + prep->name + "\n";
    std::lock_guard<std::mutex> lock(prep->mu);
    if (prep->plan != nullptr) {
      text += "parameterized plan:\n" + algebra::PlanToString(prep->plan);
    }
  } else {
    FGAC_ASSIGN_OR_RETURN(PlanPtr plan, BindQuery(*stmt.select, ctx));
    // Costed over the statement state, as the run is: the fgac_ tables
    // count their snapshot rows.
    FGAC_ASSIGN_OR_RETURN(storage::DatabaseState state,
                          StatementState(CollectBaseTables(plan)));
    FGAC_ASSIGN_OR_RETURN(optimizer::OptimizeResult best,
                          Optimize(plan, state));
    text = "canonical plan:\n" + algebra::PlanToString(plan) +
           "optimized plan (est. cost " + std::to_string(best.estimated_cost) +
           ", est. rows " + std::to_string(best.estimated_rows) + "):\n" +
           algebra::PlanToString(best.plan);
    if (!stmt.analyze && ctx.mode() == EnforcementMode::kTruman) {
      FGAC_ASSIGN_OR_RETURN(
          PlanPtr rewritten,
          TrumanPlan(plan, ctx, /*prep=*/nullptr, /*tctx=*/nullptr,
                     /*from_cache=*/nullptr));
      text += "truman-rewritten plan:\n" + algebra::PlanToString(rewritten);
    } else if (!stmt.analyze && ctx.mode() == EnforcementMode::kNonTruman) {
      // A fresh check, for its witness, under the session's guard and an
      // admission ticket, as the SELECT's check runs.
      common::QueryGuard guard(ctx.query_limits().value_or(options_.limits));
      exec::AdmissionTicket ticket;
      FGAC_RETURN_NOT_OK(ArmGuard(ctx, &guard, &ticket));
      PlanPtr witness;
      FGAC_ASSIGN_OR_RETURN(ValidityReport report,
                            CheckValidity(plan, ctx, state, &guard,
                                          /*trace=*/nullptr, /*tctx=*/nullptr,
                                          &witness));
      text += VerdictLine(report);
      if (witness != nullptr) {
        text += "witness rewriting q' over the authorization views:\n" +
                algebra::PlanToString(witness);
      }
    }
  }
  if (stmt.analyze) AppendAnalyzeReport(&text, ctx, run, profile);
  return ExplainTextResult(text);
}

namespace {

/// Ascending indices of the rows of `data` that satisfy `where` (every row
/// when it is null), found by the row finder, so UPDATE and DELETE take a
/// keyed WHERE through the key index and filter storage in place. The bound
/// WHERE's conjuncts run left to right, each only on the rows every earlier
/// one kept (DESIGN §6).
Result<std::vector<size_t>> MatchingRows(const storage::TableData& data,
                                         const algebra::ScalarPtr& where) {
  std::vector<algebra::ScalarPtr> predicates;
  algebra::FlattenAnd(where, &predicates);
  return exec::FindRows(data, predicates, /*limit=*/std::nullopt,
                        /*guard=*/nullptr);
}

/// Ascending indices of the rows of `data` whose `cols[k]` equals `key[k]`
/// for every k, NULL equal to NULL as Value::operator== has it; at most
/// `limit` of them when one is given. The equalities are conjuncts for the
/// row finder, so a lookup on a table's key goes through its key index.
Result<std::vector<size_t>> RowsWithKey(const storage::TableData& data,
                                        const std::vector<size_t>& cols,
                                        const Row& key,
                                        std::optional<size_t> limit) {
  std::vector<algebra::ScalarPtr> conjuncts;
  conjuncts.reserve(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    algebra::ScalarPtr column = algebra::MakeColumn(static_cast<int>(cols[k]));
    conjuncts.push_back(
        key[k].is_null()
            ? algebra::MakeUnaryScalar(sql::UnOp::kIsNull, std::move(column))
            : algebra::MakeBinaryScalar(sql::BinOp::kEq, std::move(column),
                                        algebra::MakeLiteralScalar(key[k])));
  }
  return exec::FindRows(data, conjuncts, limit, /*guard=*/nullptr);
}

Row KeyOf(const Row& row, const std::vector<size_t>& cols) {
  Row key;
  key.reserve(cols.size());
  for (size_t c : cols) key.push_back(row[c]);
  return key;
}

bool HasNull(const Row& key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value& v) { return v.is_null(); });
}

}  // namespace

Status Database::CheckRowConstraints(const TableSchema& schema,
                                     const Row& row) const {
  if (row.size() != schema.num_columns()) {
    return Status::ConstraintViolation(
        "row arity does not match table '" + schema.name() + "'");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const catalog::Column& col = schema.column(i);
    if (row[i].is_null()) {
      if (col.not_null) {
        return Status::ConstraintViolation("column '" + col.name +
                                           "' is NOT NULL");
      }
      continue;
    }
    if (!catalog::ValueFitsType(row[i], col.type)) {
      return Status::ConstraintViolation(
          "value " + row[i].ToString() + " does not fit column '" + col.name +
          "' of type " + catalog::TypeIdName(col.type));
    }
  }
  // Primary-key uniqueness.
  const storage::TableData* data = state_.GetTable(schema.name());
  if (schema.has_primary_key() && data != nullptr) {
    FGAC_ASSIGN_OR_RETURN(
        std::vector<size_t> holders,
        RowsWithKey(*data, schema.primary_key(),
                    KeyOf(row, schema.primary_key()), /*limit=*/1));
    if (!holders.empty()) {
      return Status::ConstraintViolation("duplicate primary key in '" +
                                         schema.name() + "'");
    }
  }
  return Status::OK();
}

Status Database::CheckForeignKeys(const std::string& table,
                                  const Row& row) const {
  const TableSchema* schema = catalog_.GetTable(table);
  for (const catalog::InclusionDependency& dep : catalog_.constraints()) {
    if (dep.kind != catalog::InclusionDependency::Kind::kForeignKey ||
        dep.src_table != table) {
      continue;
    }
    const TableSchema* dst = catalog_.GetTable(dep.dst_table);
    const storage::TableData* dst_data = state_.GetTable(dep.dst_table);
    if (dst == nullptr || dst_data == nullptr) continue;
    std::vector<size_t> src_idx, dst_idx;
    for (size_t i = 0; i < dep.src_columns.size(); ++i) {
      src_idx.push_back(*schema->FindColumn(dep.src_columns[i]));
      dst_idx.push_back(*dst->FindColumn(dep.dst_columns[i]));
    }
    // NULL foreign keys are exempt (SQL MATCH SIMPLE).
    Row key = KeyOf(row, src_idx);
    if (HasNull(key)) continue;
    FGAC_ASSIGN_OR_RETURN(std::vector<size_t> targets,
                          RowsWithKey(*dst_data, dst_idx, key, /*limit=*/1));
    if (targets.empty()) {
      return Status::ConstraintViolation(
          "foreign key '" + dep.name + "' violated: no matching row in '" +
          dep.dst_table + "'");
    }
  }
  return Status::OK();
}

Status Database::CheckKeysAfterWrite(
    const TableSchema& schema, const std::vector<size_t>& rows,
    const std::vector<Row>* images, const std::vector<size_t>& assigned) const {
  if (rows.empty()) return Status::OK();
  // A DELETE puts every key at stake; an UPDATE only the keys whose
  // columns it assigns.
  auto at_stake = [&](const std::vector<size_t>& cols) {
    return images == nullptr ||
           std::find_first_of(cols.begin(), cols.end(), assigned.begin(),
                              assigned.end()) != cols.end();
  };
  // The table as the write would leave it, built once a key is at stake.
  std::optional<std::vector<Row>> after;
  auto table_after = [&]() -> const std::vector<Row>& {
    if (after.has_value()) return *after;
    const storage::TableData& data = *state_.GetTable(schema.name());
    after.emplace();
    for (size_t i = 0, k = 0; i < data.num_rows(); ++i) {
      if (k < rows.size() && rows[k] == i) {
        if (images != nullptr) after->push_back((*images)[k]);
        ++k;
      } else {
        after->push_back(data.GetRow(i));
      }
    }
    return *after;
  };
  // Every written key must be new among the images and held by no row the
  // write leaves in place (`rows` is ascending).
  if (images != nullptr && schema.has_primary_key() &&
      at_stake(schema.primary_key())) {
    const storage::TableData& data = *state_.GetTable(schema.name());
    std::set<Row> written;
    for (const Row& image : *images) {
      Row key = KeyOf(image, schema.primary_key());
      bool duplicate = !written.insert(key).second;
      if (!duplicate) {
        FGAC_ASSIGN_OR_RETURN(
            std::vector<size_t> holders,
            RowsWithKey(data, schema.primary_key(), key, std::nullopt));
        duplicate = std::any_of(holders.begin(), holders.end(), [&](size_t i) {
          return !std::binary_search(rows.begin(), rows.end(), i);
        });
      }
      if (duplicate) {
        return Status::ConstraintViolation("duplicate primary key in '" +
                                           schema.name() + "'");
      }
    }
  }
  // RESTRICT: every referencing row keeps a target (MATCH SIMPLE, as in
  // CheckForeignKeys). A self-reference reads the table's new contents.
  for (const catalog::InclusionDependency& dep : catalog_.constraints()) {
    const TableSchema* src = catalog_.GetTable(dep.src_table);
    if (dep.kind != catalog::InclusionDependency::Kind::kForeignKey ||
        dep.dst_table != schema.name() || src == nullptr) {
      continue;
    }
    std::vector<size_t> src_idx, dst_idx;
    for (size_t i = 0; i < dep.src_columns.size(); ++i) {
      src_idx.push_back(*src->FindColumn(dep.src_columns[i]));
      dst_idx.push_back(*schema.FindColumn(dep.dst_columns[i]));
    }
    if (!at_stake(dst_idx)) continue;
    const std::vector<Row>& rows_after = table_after();
    std::set<Row> targets;
    for (const Row& r : rows_after) targets.insert(KeyOf(r, dst_idx));
    auto loses_target = [&](const Row& r) {
      Row key = KeyOf(r, src_idx);
      return !HasNull(key) && targets.count(key) == 0;
    };
    bool lost = false;
    if (dep.src_table == schema.name()) {
      lost = std::any_of(rows_after.begin(), rows_after.end(), loses_target);
    } else if (const storage::TableData* src_data =
                   state_.GetTable(dep.src_table)) {
      for (size_t i = 0; !lost && i < src_data->num_rows(); ++i) {
        lost = loses_target(src_data->GetRow(i));
      }
    }
    if (lost) {
      return Status::ConstraintViolation(
          "foreign key '" + dep.name + "' violated: a row of '" +
          dep.src_table + "' would lose its target in '" + schema.name() +
          "'");
    }
  }
  return Status::OK();
}

Result<ExecResult> Database::ExecuteInsert(const sql::InsertStmt& stmt,
                                           const SessionContext& ctx) {
  if (system_tables_ready_ && IsSystemObject(stmt.table)) {
    return Status::InvalidArgument("system table '" + stmt.table +
                                   "' is read-only");
  }
  const TableSchema* schema = catalog_.GetTable(stmt.table);
  if (schema == nullptr) {
    return Status::CatalogError("unknown table '" + stmt.table + "'");
  }
  // Column mapping.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema->num_columns(); ++i) targets.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      std::optional<size_t> idx = schema->FindColumn(c);
      if (!idx.has_value()) {
        return Status::BindError("unknown column '" + c + "'");
      }
      targets.push_back(*idx);
    }
  }

  UpdateAuthorizer authorizer(catalog_, ctx);
  std::vector<Row> pending;
  std::set<Row> pending_keys;  // primary keys of this statement's rows
  for (const std::vector<sql::ExprPtr>& value_row : stmt.rows) {
    if (value_row.size() != targets.size()) {
      return Status::BindError("INSERT value count mismatch");
    }
    Row row(schema->num_columns(), Value::Null());
    Row empty;
    for (size_t i = 0; i < value_row.size(); ++i) {
      FGAC_ASSIGN_OR_RETURN(
          algebra::ScalarPtr scalar,
          algebra::Binder::BindOverTable(value_row[i], *schema, ctx.params()));
      FGAC_ASSIGN_OR_RETURN(Value v, algebra::EvalScalar(scalar, empty));
      row[targets[i]] =
          catalog::CoerceToType(v, schema->column(targets[i]).type);
    }
    // Authorization precedes integrity checking so a denied user cannot
    // probe constraint state (e.g. learn which keys exist).
    if (ctx.mode() != EnforcementMode::kNone) {
      FGAC_ASSIGN_OR_RETURN(bool ok, authorizer.CheckInsert(stmt.table, row));
      if (!ok) {
        return Status::NotAuthorized("INSERT into '" + stmt.table +
                                     "' not authorized for user '" +
                                     ctx.user() + "'");
      }
    }
    FGAC_RETURN_NOT_OK(CheckRowConstraints(*schema, row));
    FGAC_RETURN_NOT_OK(CheckForeignKeys(stmt.table, row));
    // CheckRowConstraints sees only the stored rows; two rows of this
    // statement must not share a key either.
    if (schema->has_primary_key() &&
        !pending_keys.insert(KeyOf(row, schema->primary_key())).second) {
      return Status::ConstraintViolation("duplicate primary key in '" +
                                         schema->name() + "'");
    }
    pending.push_back(std::move(row));
  }

  storage::TableData* data = state_.GetMutableTable(stmt.table);
  ExecResult out;
  out.affected_rows = static_cast<int64_t>(pending.size());
  data->InsertRows(std::move(pending));
  return out;
}

Result<ExecResult> Database::ExecuteUpdate(const sql::UpdateStmt& stmt,
                                           const SessionContext& ctx) {
  if (system_tables_ready_ && IsSystemObject(stmt.table)) {
    return Status::InvalidArgument("system table '" + stmt.table +
                                   "' is read-only");
  }
  const TableSchema* schema = catalog_.GetTable(stmt.table);
  if (schema == nullptr) {
    return Status::CatalogError("unknown table '" + stmt.table + "'");
  }
  algebra::ScalarPtr where;
  if (stmt.where != nullptr) {
    FGAC_ASSIGN_OR_RETURN(where, algebra::Binder::BindOverTable(
                                     stmt.where, *schema, ctx.params()));
  }
  struct BoundAssign {
    size_t column;
    algebra::ScalarPtr value;
  };
  std::vector<BoundAssign> assigns;
  std::vector<std::string> changed_columns;
  std::vector<size_t> assigned;
  for (const auto& [col, expr] : stmt.assignments) {
    std::optional<size_t> idx = schema->FindColumn(col);
    if (!idx.has_value()) return Status::BindError("unknown column '" + col + "'");
    FGAC_ASSIGN_OR_RETURN(
        algebra::ScalarPtr value,
        algebra::Binder::BindOverTable(expr, *schema, ctx.params()));
    assigns.push_back({*idx, std::move(value)});
    changed_columns.push_back(col);
    assigned.push_back(*idx);
  }

  storage::TableData* data = state_.GetMutableTable(stmt.table);
  UpdateAuthorizer authorizer(catalog_, ctx);

  // Two phases: compute all new images (with checks), then apply, so a
  // failed check mid-way leaves the table untouched.
  FGAC_ASSIGN_OR_RETURN(std::vector<size_t> matched,
                        MatchingRows(*data, where));
  std::vector<Row> images;
  images.reserve(matched.size());
  for (size_t i : matched) {
    const Row old_row = data->GetRow(i);
    Row new_row = old_row;
    for (const BoundAssign& a : assigns) {
      FGAC_ASSIGN_OR_RETURN(Value v, algebra::EvalScalar(a.value, old_row));
      new_row[a.column] =
          catalog::CoerceToType(v, schema->column(a.column).type);
    }
    if (ctx.mode() != EnforcementMode::kNone) {
      FGAC_ASSIGN_OR_RETURN(bool ok, authorizer.CheckUpdate(stmt.table, old_row,
                                                            new_row,
                                                            changed_columns));
      if (!ok) {
        return Status::NotAuthorized("UPDATE on '" + stmt.table +
                                     "' not authorized for user '" +
                                     ctx.user() + "'");
      }
    }
    for (size_t c = 0; c < new_row.size(); ++c) {
      const catalog::Column& col = schema->column(c);
      if (new_row[c].is_null() && col.not_null) {
        return Status::ConstraintViolation("column '" + col.name +
                                           "' is NOT NULL");
      }
      if (!new_row[c].is_null() &&
          !catalog::ValueFitsType(new_row[c], col.type)) {
        return Status::ConstraintViolation("type mismatch for column '" +
                                           col.name + "'");
      }
    }
    FGAC_RETURN_NOT_OK(CheckForeignKeys(stmt.table, new_row));
    images.push_back(std::move(new_row));
  }
  FGAC_RETURN_NOT_OK(CheckKeysAfterWrite(*schema, matched, &images, assigned));
  for (size_t k = 0; k < matched.size(); ++k) {
    data->UpdateRow(matched[k], images[k]);
  }
  ExecResult out;
  out.affected_rows = static_cast<int64_t>(matched.size());
  return out;
}

Result<ExecResult> Database::ExecuteDelete(const sql::DeleteStmt& stmt,
                                           const SessionContext& ctx) {
  if (system_tables_ready_ && IsSystemObject(stmt.table)) {
    return Status::InvalidArgument("system table '" + stmt.table +
                                   "' is read-only");
  }
  const TableSchema* schema = catalog_.GetTable(stmt.table);
  if (schema == nullptr) {
    return Status::CatalogError("unknown table '" + stmt.table + "'");
  }
  algebra::ScalarPtr where;
  if (stmt.where != nullptr) {
    FGAC_ASSIGN_OR_RETURN(where, algebra::Binder::BindOverTable(
                                     stmt.where, *schema, ctx.params()));
  }
  storage::TableData* data = state_.GetMutableTable(stmt.table);
  UpdateAuthorizer authorizer(catalog_, ctx);
  FGAC_ASSIGN_OR_RETURN(std::vector<size_t> to_delete,
                        MatchingRows(*data, where));
  if (ctx.mode() != EnforcementMode::kNone) {
    for (size_t i : to_delete) {
      FGAC_ASSIGN_OR_RETURN(
          bool ok, authorizer.CheckDelete(stmt.table, data->GetRow(i)));
      if (!ok) {
        return Status::NotAuthorized("DELETE from '" + stmt.table +
                                     "' not authorized for user '" +
                                     ctx.user() + "'");
      }
    }
  }
  FGAC_RETURN_NOT_OK(CheckKeysAfterWrite(*schema, to_delete, /*images=*/nullptr,
                                         /*assigned=*/{}));
  data->EraseIndices(to_delete);
  ExecResult out;
  out.affected_rows = static_cast<int64_t>(to_delete.size());
  return out;
}

Result<ExecResult> Database::ApplyCreateTable(const sql::CreateTableStmt& stmt) {
  if (system_tables_ready_ && IsSystemObject(stmt.name)) {
    return Status::InvalidArgument("the fgac_ namespace is reserved for "
                                   "system tables");
  }
  std::vector<catalog::Column> columns;
  for (const sql::ColumnDef& def : stmt.columns) {
    columns.push_back(
        {def.name, catalog::TypeFromSql(def.type), def.not_null});
  }
  TableSchema schema(stmt.name, std::move(columns));
  std::vector<size_t> pk;
  for (const std::string& c : stmt.primary_key) {
    std::optional<size_t> idx = schema.FindColumn(c);
    if (!idx.has_value()) {
      return Status::CatalogError("PRIMARY KEY column '" + c + "' not found");
    }
    pk.push_back(*idx);
  }
  schema.set_primary_key(std::move(pk));
  FGAC_RETURN_NOT_OK(catalog_.AddTable(schema));
  FGAC_RETURN_NOT_OK(state_.CreateTable(stmt.name, schema.num_columns(),
                                        schema.primary_key()));

  for (size_t i = 0; i < stmt.foreign_keys.size(); ++i) {
    const sql::ForeignKeyClause& fk = stmt.foreign_keys[i];
    catalog::InclusionDependency dep;
    dep.kind = catalog::InclusionDependency::Kind::kForeignKey;
    dep.name = "fk_" + stmt.name + "_" + std::to_string(i);
    dep.src_table = stmt.name;
    dep.src_columns = fk.columns;
    dep.dst_table = fk.ref_table;
    if (!fk.ref_columns.empty()) {
      dep.dst_columns = fk.ref_columns;
    } else {
      const TableSchema* ref = catalog_.GetTable(fk.ref_table);
      if (ref == nullptr) {
        return Status::CatalogError("referenced table '" + fk.ref_table +
                                    "' does not exist");
      }
      for (size_t idx : ref->primary_key()) {
        dep.dst_columns.push_back(ref->column(idx).name);
      }
      if (dep.dst_columns.empty()) {
        return Status::CatalogError("referenced table '" + fk.ref_table +
                                    "' has no primary key");
      }
    }
    FGAC_RETURN_NOT_OK(catalog_.AddConstraint(std::move(dep)));
  }
  ExecResult out;
  out.message = "created table " + stmt.name;
  return out;
}

Result<ExecResult> Database::ApplyCreateView(const sql::CreateViewStmt& stmt) {
  if (system_tables_ready_ && IsSystemObject(stmt.name)) {
    return Status::InvalidArgument("the fgac_ namespace is reserved for "
                                   "system views");
  }
  catalog::ViewDefinition view;
  view.name = stmt.name;
  view.is_authorization = stmt.authorization;
  view.select = stmt.select;
  std::vector<std::string> params, access;
  stmt.select->CollectAllParams(&params, &access);
  std::sort(params.begin(), params.end());
  params.erase(std::unique(params.begin(), params.end()), params.end());
  std::sort(access.begin(), access.end());
  access.erase(std::unique(access.begin(), access.end()), access.end());
  view.parameters = std::move(params);
  view.access_parameters = std::move(access);
  FGAC_RETURN_NOT_OK(catalog_.AddView(std::move(view)));
  ExecResult out;
  out.message = std::string("created ") +
                (stmt.authorization ? "authorization view " : "view ") +
                stmt.name;
  return out;
}

Result<ExecResult> Database::ApplyCreateInclusion(
    const sql::CreateInclusionStmt& stmt) {
  catalog::InclusionDependency dep;
  dep.kind = catalog::InclusionDependency::Kind::kDeclared;
  dep.name = stmt.name;
  dep.src_table = stmt.src_table;
  dep.src_columns = stmt.src_columns;
  dep.src_predicate = stmt.src_where;
  dep.dst_table = stmt.dst_table;
  dep.dst_columns = stmt.dst_columns;
  FGAC_RETURN_NOT_OK(catalog_.AddConstraint(std::move(dep)));
  ExecResult out;
  out.message = "created inclusion dependency " + stmt.name;
  return out;
}

Result<ExecResult> Database::ApplyGrant(const sql::GrantStmt& stmt) {
  FGAC_RETURN_NOT_OK(catalog_.GrantView(stmt.object, stmt.grantee));
  ExecResult out;
  out.message = "granted " + stmt.object + " to " + stmt.grantee;
  return out;
}

Result<ExecResult> Database::ApplyAuthorize(const sql::AuthorizeStmt& stmt) {
  if (!catalog_.HasTable(stmt.table)) {
    return Status::CatalogError("unknown table '" + stmt.table + "'");
  }
  catalog::UpdateAuthorization rule;
  switch (stmt.op) {
    case sql::AuthorizeStmt::Op::kInsert:
      rule.op = catalog::UpdateAuthorization::Op::kInsert;
      break;
    case sql::AuthorizeStmt::Op::kUpdate:
      rule.op = catalog::UpdateAuthorization::Op::kUpdate;
      break;
    case sql::AuthorizeStmt::Op::kDelete:
      rule.op = catalog::UpdateAuthorization::Op::kDelete;
      break;
  }
  rule.table = stmt.table;
  rule.columns = stmt.columns;
  rule.predicate = stmt.where;
  std::string grantee = stmt.grantee.empty() ? "public" : stmt.grantee;
  catalog_.GetOrCreatePrincipal(grantee)->update_authorizations.push_back(
      std::move(rule));
  // The principal mutation happened outside the catalog's own setters;
  // record it so cached update-authorization decisions cannot go stale.
  catalog_.BumpPolicyEpoch();
  ExecResult out;
  out.message = "authorization rule added on " + stmt.table;
  return out;
}

Result<ExecResult> Database::ApplyDrop(const sql::DropStmt& stmt) {
  if (system_tables_ready_ && IsSystemObject(stmt.name)) {
    return Status::InvalidArgument("system object '" + stmt.name +
                                   "' cannot be dropped");
  }
  if (stmt.what == sql::DropStmt::What::kTable) {
    FGAC_RETURN_NOT_OK(catalog_.DropTable(stmt.name));
    FGAC_RETURN_NOT_OK(state_.DropTable(stmt.name));
  } else {
    FGAC_RETURN_NOT_OK(catalog_.DropView(stmt.name));
  }
  ExecResult out;
  out.message = "dropped " + stmt.name;
  return out;
}

void Database::BootstrapSystemTables() {
  // The observability catalog, self-governed by FGAC: every user can read
  // their OWN audit rows / spans (parameterized per-user views, granted to
  // public and installed as the Truman policy views), while admin and a
  // dedicated auditor principal see everything.
  static constexpr std::string_view kBootstrap = R"sql(
    create table fgac_audit (
      seq bigint, at_ms bigint, user_name varchar, session_id varchar,
      mode varchar, statement varchar, statement_hash varchar,
      verdict varchar, rules varchar, probes bigint, guard_rows bigint,
      guard_bytes bigint, duration_us bigint, status varchar, error varchar,
      trace_id bigint, from_cache boolean, rows_out bigint,
      admission_wait_us bigint, validity_us bigint, exec_us bigint,
      queue_wait_us bigint, run_us bigint, trace varchar, stats varchar);
    create table fgac_spans (
      trace_id bigint, span_id bigint, parent_id bigint, span_name varchar,
      user_name varchar, detail varchar, start_us bigint, duration_us bigint,
      thread_id bigint);
    create table fgac_sessions (
      session_id varchar, user_name varchar, active boolean,
      in_flight bigint, statements_run bigint, cache_hits bigint,
      current_statement varchar, current_elapsed_us bigint);
    create table fgac_activity (
      seq bigint, session_id varchar, user_name varchar, statement varchar,
      phase varchar, elapsed_us bigint, admission_wait_us bigint,
      guard_rows bigint, guard_bytes bigint, pipelines_total bigint,
      pipelines_done bigint, queue_wait_us bigint, run_us bigint);
    create table fgac_statement_cache (
      shard bigint, entries bigint, hits bigint, misses bigint,
      evictions bigint, invalidations bigint, collisions bigint);
    create authorization view fgac_my_audit as
      select * from fgac_audit where user_name = $user-id;
    create authorization view fgac_my_spans as
      select * from fgac_spans where user_name = $user-id;
    create authorization view fgac_my_sessions as
      select * from fgac_sessions where user_name = $user-id;
    create authorization view fgac_my_activity as
      select * from fgac_activity where user_name = $user-id;
    create authorization view fgac_audit_all as select * from fgac_audit;
    create authorization view fgac_spans_all as select * from fgac_spans;
    create authorization view fgac_sessions_all as
      select * from fgac_sessions;
    create authorization view fgac_activity_all as
      select * from fgac_activity;
    create authorization view fgac_statement_cache_all as
      select * from fgac_statement_cache;
    grant select on fgac_my_audit to public;
    grant select on fgac_my_spans to public;
    grant select on fgac_my_sessions to public;
    grant select on fgac_my_activity to public;
    grant select on fgac_audit_all to admin;
    grant select on fgac_spans_all to admin;
    grant select on fgac_sessions_all to admin;
    grant select on fgac_activity_all to admin;
    grant select on fgac_statement_cache_all to admin;
    grant select on fgac_audit_all to auditor;
    grant select on fgac_spans_all to auditor;
    grant select on fgac_sessions_all to auditor;
    grant select on fgac_activity_all to auditor;
    grant select on fgac_statement_cache_all to auditor;
    create view fgac_slow_queries as
      select seq, at_ms, user_name, session_id, statement, verdict, status,
             duration_us, validity_us, exec_us, queue_wait_us, run_us,
             admission_wait_us, guard_rows, guard_bytes, trace, stats
      from fgac_audit
      where duration_us >= 1000000 and verdict <> 'stalled';
  )sql";
  Result<std::vector<sql::StmtPtr>> stmts =
      sql::Parser::ParseScript(kBootstrap);
  if (!stmts.ok()) return;  // unreachable: the script is a compile-time fixture
  SessionContext admin = AdminContext();
  for (const sql::StmtPtr& stmt : stmts.value()) {
    Result<ExecResult> r = ExecuteStmt(*stmt, admin, nullptr);
    if (!r.ok()) {
      std::fprintf(stderr, "FGAC bootstrap failed on %s: %s\n",
                   sql::StmtToSql(*stmt).c_str(),
                   r.status().ToString().c_str());
      return;
    }
  }
  // Truman mode transparently narrows bare `select * from fgac_audit` to
  // the session user's own rows. fgac_statement_cache deliberately has NO
  // Truman view: its rows carry no user dimension, so non-admin access
  // fails rather than leaking cross-principal cache behavior.
  (void)catalog_.SetTrumanView("fgac_audit", "fgac_my_audit");
  (void)catalog_.SetTrumanView("fgac_spans", "fgac_my_spans");
  (void)catalog_.SetTrumanView("fgac_sessions", "fgac_my_sessions");
  (void)catalog_.SetTrumanView("fgac_activity", "fgac_my_activity");
}

Result<storage::DatabaseState> Database::StatementState(
    const std::vector<std::string>& tables) {
  storage::DatabaseState layer(&state_);
  for (const std::string& table : tables) {
    if (!IsSystemObject(table)) continue;
    // Fault site for introspection tests: the reading statement fails
    // cleanly instead of scanning stale rows.
    FGAC_FAULT_POINT("introspect.snapshot");
    std::vector<Row> rows;
    if (table == "fgac_audit" && audit_ != nullptr) {
      // Drain the ring first so the snapshot reflects everything emitted
      // before this statement started.
      audit_->Flush();
      for (const common::AuditEvent& e : audit_->SnapshotRetained()) {
        rows.push_back(
            {IntValue(e.seq), Value::Int(e.wall_ms), Value::String(e.user),
             Value::String(e.session), Value::String(e.mode),
             Value::String(e.statement),
             Value::String(common::AuditHashHex(e.statement_hash)),
             Value::String(e.verdict), Value::String(e.rules),
             IntValue(e.probes), IntValue(e.guard_rows),
             IntValue(e.guard_bytes), Value::Int(e.duration_us),
             Value::String(e.status), Value::String(e.error),
             IntValue(e.trace_id), Value::Bool(e.from_cache),
             Value::Int(e.rows_out), IntValue(e.admission_wait_us),
             IntValue(e.validity_us), IntValue(e.exec_us),
             IntValue(e.queue_wait_us), IntValue(e.run_us),
             Value::String(e.trace), Value::String(e.stats)});
      }
    } else if (table == "fgac_spans") {
      for (const common::TraceSpan& sp : tracer_.Snapshot()) {
        rows.push_back({IntValue(sp.trace_id), IntValue(sp.span_id),
                        IntValue(sp.parent_id), Value::String(sp.name),
                        Value::String(sp.user), Value::String(sp.detail),
                        Value::Int(sp.start_us), Value::Int(sp.dur_us),
                        IntValue(sp.thread_id)});
      }
    } else if (table == "fgac_sessions") {
      for (const common::SessionActivitySnapshot& ss :
           activity_.SnapshotSessions()) {
        rows.push_back({Value::String(ss.session_id), Value::String(ss.user),
                        Value::Bool(ss.active), IntValue(ss.in_flight),
                        IntValue(ss.statements_run), IntValue(ss.cache_hits),
                        Value::String(ss.current_statement),
                        IntValue(ss.current_elapsed_us)});
      }
    } else if (table == "fgac_activity") {
      for (const common::StatementActivitySnapshot& a :
           activity_.SnapshotStatements()) {
        rows.push_back(
            {IntValue(a.seq), Value::String(a.session_id),
             Value::String(a.user), Value::String(a.statement),
             Value::String(common::StatementPhaseName(a.phase)),
             IntValue(a.elapsed_us), IntValue(a.admission_wait_us),
             IntValue(a.guard_rows), IntValue(a.guard_bytes),
             IntValue(a.pipelines_total), IntValue(a.pipelines_done),
             IntValue(a.queue_wait_us), IntValue(a.run_us)});
      }
    } else if (table == "fgac_statement_cache") {
      for (const StatementCache::ShardStats& c : stmt_cache_.SnapshotShards()) {
        rows.push_back({IntValue(c.shard), IntValue(c.entries),
                        IntValue(c.hits), IntValue(c.misses),
                        IntValue(c.evictions), IntValue(c.invalidations),
                        IntValue(c.collisions)});
      }
    }
    FGAC_RETURN_NOT_OK(
        layer.CreateTable(table, state_.GetTable(table)->num_columns()));
    layer.GetMutableTable(table)->ReplaceAllRows(std::move(rows));
  }
  return layer;
}

Result<ValidityReport> Database::CheckQueryValidity(std::string_view sql,
                                                    const SessionContext& ctx) {
  FGAC_ASSIGN_OR_RETURN(std::shared_ptr<const sql::SelectStmt> stmt,
                        sql::Parser::ParseSelect(sql));
  FGAC_ASSIGN_OR_RETURN(PlanPtr plan, BindQuery(*stmt, ctx));
  common::QueryGuard guard(ctx.query_limits().value_or(options_.limits));
  FGAC_RETURN_NOT_OK(ArmGuard(ctx, &guard, /*ticket=*/nullptr));
  FGAC_ASSIGN_OR_RETURN(storage::DatabaseState state,
                        StatementState(CollectBaseTables(plan)));
  return CheckValidity(plan, ctx, state, &guard, /*trace=*/nullptr,
                       /*tctx=*/nullptr);
}

Status Database::VerifyConstraints() const {
  for (const catalog::InclusionDependency& dep : catalog_.constraints()) {
    const TableSchema* src = catalog_.GetTable(dep.src_table);
    const TableSchema* dst = catalog_.GetTable(dep.dst_table);
    const storage::TableData* src_data = state_.GetTable(dep.src_table);
    const storage::TableData* dst_data = state_.GetTable(dep.dst_table);
    if (src == nullptr || dst == nullptr || src_data == nullptr ||
        dst_data == nullptr) {
      return Status::CatalogError("constraint '" + dep.name +
                                  "' references missing table");
    }
    algebra::ScalarPtr pred;
    if (dep.src_predicate != nullptr) {
      FGAC_ASSIGN_OR_RETURN(
          pred, algebra::Binder::BindOverTable(dep.src_predicate, *src));
    }
    std::vector<size_t> src_idx, dst_idx;
    for (size_t i = 0; i < dep.src_columns.size(); ++i) {
      src_idx.push_back(*src->FindColumn(dep.src_columns[i]));
      dst_idx.push_back(*dst->FindColumn(dep.dst_columns[i]));
    }
    // Build the set of destination keys.
    std::set<Row> dst_keys;
    for (size_t i = 0; i < dst_data->num_rows(); ++i) {
      dst_keys.insert(KeyOf(dst_data->GetRow(i), dst_idx));
    }
    for (size_t i = 0; i < src_data->num_rows(); ++i) {
      const Row r = src_data->GetRow(i);
      if (pred != nullptr) {
        FGAC_ASSIGN_OR_RETURN(bool pass, algebra::EvalPredicate(pred, r));
        if (!pass) continue;
      }
      Row key = KeyOf(r, src_idx);
      if (HasNull(key)) continue;
      if (dst_keys.count(key) == 0) {
        return Status::ConstraintViolation(
            "inclusion dependency '" + dep.name + "' violated by row " +
            RowToString(r) + " of '" + dep.src_table + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace fgac::core
