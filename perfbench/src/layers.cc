#include "layers.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "algebra/binder.h"
#include "algebra/normalize.h"
#include "algebra/scalar.h"
#include "common/thread_pool.h"
#include "core/auth_view.h"
#include "core/truman.h"
#include "core/validity.h"
#include "exec/chunk.h"
#include "exec/exec_stats.h"
#include "exec/parallel.h"
#include "exec/scheduler.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace fgac::perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using algebra::PlanPtr;

/// Runs `fn` and returns its wall time in ns.
template <typename Fn>
double TimeNs(Fn&& fn) {
  auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

[[noreturn]] void ReplayFailed(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: layer replay failed (%s): %s\n",
               what.c_str(), st.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) ReplayFailed(what, r.status());
  return std::move(r).value();
}

size_t CountOps(const PlanPtr& plan) {
  size_t n = 1;
  for (const PlanPtr& c : plan->children) n += CountOps(c);
  return n;
}

/// Rows the scans of `plan` produced, from a profiled execution.
double RowsScanned(const PlanPtr& plan, const exec::ExecStats& stats) {
  double n = 0;
  if (plan->kind == algebra::PlanKind::kGet) {
    if (const exec::OpStats* op = stats.Find(plan.get())) {
      n += static_cast<double>(op->rows_out.load());
    }
  }
  for (const PlanPtr& c : plan->children) n += RowsScanned(c, stats);
  return n;
}

core::ValidityOptions EngineValidityOptions(core::Database& db) {
  // Database::ResolvedValidityOptions: probe parallelism 0 inherits the
  // database's parallelism knob.
  core::ValidityOptions o = db.options().validity;
  if (o.probe_parallelism == 0) o.probe_parallelism = db.options().parallelism;
  return o;
}

optimizer::TableRowCount RowCounter(core::Database& db) {
  return [&db](const std::string& table) -> double {
    const storage::TableData* t = db.state().GetTable(table);
    return t == nullptr ? 1000.0 : static_cast<double>(t->num_rows());
  };
}

size_t ExecThreads(core::Database& db, const core::SessionContext& ctx) {
  return ctx.exec_parallelism() != 0 ? ctx.exec_parallelism()
                                     : db.options().parallelism;
}

exec::DagOptions DagFor(const core::SessionContext& ctx) {
  exec::DagOptions o;
  o.session_key = std::hash<std::string>{}(ctx.session_id());
  o.weight = ctx.scheduler_weight();
  return o;
}

/// The PREPARE body of a prepared shape, as Bench::SetUp prepares it.
const char* PreparedBody(Shape s) {
  switch (s) {
    case Shape::kPoint:
      return "select grade from grades where student-id = $user-id and "
             "course-id = $1";
    case Shape::kOwnGrades:
      return "select course-id, grade from grades where student-id = $user-id";
    case Shape::kOwnRegs:
      return "select course-id from registered where student-id = $user-id";
    default:
      return "";
  }
}

double ScanGradesNs(core::Database& db) {
  exec::DataChunk chunk;
  return TimeNs([&] {
    Must(db.state().GetTable("grades")->ScanChunk(0, exec::kMorselSize, &chunk),
         "grades scan");
  });
}

}  // namespace

void LayerSums::Add(const LayerSums& o) {
  parse_ns += o.parse_ns;
  bind_ns += o.bind_ns;
  rewrite_ns += o.rewrite_ns;
  instantiate_ns += o.instantiate_ns;
  check_ns += o.check_ns;
  optimize_ns += o.optimize_ns;
  exec_ns += o.exec_ns;
  parse_n += o.parse_n;
  bind_n += o.bind_n;
  rewrite_n += o.rewrite_n;
  check_n += o.check_n;
  optimize_n += o.optimize_n;
  exec_n += o.exec_n;
  validity_memo_exprs += o.validity_memo_exprs;
  views_pruned += o.views_pruned;
  views_considered += o.views_considered;
  probes += o.probes;
  optimizer_memo_exprs += o.optimizer_memo_exprs;
  truman_ops_before += o.truman_ops_before;
  truman_ops_after += o.truman_ops_after;
  rows_scanned += o.rows_scanned;
  rows_returned += o.rows_returned;
  read_wall_ns += o.read_wall_ns;
  read_layers_ns += o.read_layers_ns;
  read_n += o.read_n;
  policy_ns += o.policy_ns;
  policy_n += o.policy_n;
  rebuild_ns += o.rebuild_ns;
  rebuild_n += o.rebuild_n;
  xc_validity_ns += o.xc_validity_ns;
  xc_exec_ns += o.xc_exec_ns;
  xc_prepared_ns += o.xc_prepared_ns;
}

TraceSink::TraceSink(int clients) : clients_(static_cast<size_t>(clients)) {}

LayerSums TraceSink::Total() const {
  LayerSums t;
  for (const Client& c : clients_) t.Add(c.sums);
  return t;
}

void TraceSink::OnStatement(Bench& bench, int client, const Statement& st,
                            const core::SessionContext& ctx,
                            const Result<core::ExecResult>& r, double wall_ns,
                            bool verdict_from_cache) {
  Client& c = clients_[static_cast<size_t>(client)];
  switch (st.kind) {
    case Kind::kPolicy:
      c.sums.policy_ns += wall_ns;
      ++c.sums.policy_n;
      return;
    case Kind::kWrite:
      // The first scan after a write rebuilds the columnar snapshot; the
      // writer still holds the latch, so no reader got there first.
      if (r.ok()) {
        c.sums.rebuild_ns += ScanGradesNs(bench.db());
        ++c.sums.rebuild_n;
      }
      return;
    case Kind::kRead:
      if (r.ok()) {
        Read(bench, c, st, ctx, &r.value(), wall_ns, verdict_from_cache);
      } else if (r.status().code() == StatusCode::kNotAuthorized) {
        Read(bench, c, st, ctx, nullptr, wall_ns, verdict_from_cache);
      }
      return;
  }
}

void TraceSink::Read(Bench& bench, Client& c, const Statement& st,
                     const core::SessionContext& ctx,
                     const core::ExecResult* res, double wall_ns,
                     bool verdict_from_cache) {
  core::Database& db = bench.db();
  LayerSums& s = c.sums;
  const bool prepared = bench.spec().prepared;
  double layers = 0;
  double prepared_work = 0;  // behind prepared.execute_us

  // sql: a session parses every statement; an ad-hoc one is parsed again
  // by Database::Execute.
  sql::StmtPtr parsed;
  double ns = TimeNs([&] {
    parsed = Must(sql::Parser::ParseStatement(st.sql), "parse");
  });
  if (!prepared) {
    ns += TimeNs([&] {
      parsed = Must(sql::Parser::ParseStatement(st.sql), "parse");
    });
  }
  s.parse_ns += ns;
  ++s.parse_n;
  layers += ns;

  // algebra: bind the ad-hoc statement, or substitute the EXECUTE
  // arguments into the prepared plan.
  PlanPtr plan;
  PlanPtr truman_in;
  std::map<std::string, Value> bindings;
  PreparedPlans* pp = nullptr;
  if (!prepared) {
    const auto& select = static_cast<const sql::SelectStmt&>(*parsed);
    ns = TimeNs([&] { plan = Must(db.BindQuery(select, ctx), "bind"); });
    truman_in = plan;
  } else {
    pp = &c.prepared[{st.student, static_cast<int>(st.shape)}];
    if (pp->parameterized == nullptr) {
      sql::StmtPtr body = Must(
          sql::Parser::ParseStatement(PreparedBody(st.shape)), "parse body");
      algebra::Binder::Options options;
      options.params = ctx.params();
      options.defer_unbound_params = true;
      algebra::Binder binder(db.catalog(), options);
      pp->parameterized = Must(
          binder.BindSelect(static_cast<const sql::SelectStmt&>(*body)),
          "bind prepared body");
    }
    const auto& execute = static_cast<const sql::ExecuteStmt&>(*parsed);
    static const catalog::TableSchema kEmptySchema("", {});
    ns = TimeNs([&] {
      for (size_t i = 0; i < execute.args.size(); ++i) {
        algebra::ScalarPtr scalar =
            Must(algebra::Binder::BindOverTable(execute.args[i], kEmptySchema,
                                                ctx.params()),
                 "bind argument");
        Row empty;
        bindings[std::to_string(i + 1)] =
            Must(algebra::EvalScalar(scalar, empty), "evaluate argument");
      }
      plan = bindings.empty()
                 ? pp->parameterized
                 : algebra::NormalizePlan(
                       algebra::BindPlanParams(pp->parameterized, bindings));
    });
    truman_in = pp->parameterized;
  }
  s.bind_ns += ns;
  ++s.bind_n;
  layers += ns;
  prepared_work += ns;

  // core: Truman rewrite or Non-Truman validity, as the engine ran them.
  PlanPtr to_run = plan;
  if (st.mode == Mode::kTruman) {
    PlanPtr rewritten;
    bool cached = res != nullptr && res->truman_plan_from_cache;
    auto rewrite = [&] {
      rewritten = algebra::NormalizePlan(
          Must(core::TrumanRewrite(truman_in, db.catalog(), ctx), "rewrite"));
    };
    if (prepared && cached && pp->truman != nullptr) {
      rewritten = pp->truman;
    } else if (prepared && cached) {
      rewrite();  // untimed: the engine served this plan from its cache
    } else {
      ns = TimeNs(rewrite);
      s.rewrite_ns += ns;
      ++s.rewrite_n;
      layers += ns;
      prepared_work += ns;
    }
    s.truman_ops_before += static_cast<double>(CountOps(truman_in));
    s.truman_ops_after += static_cast<double>(CountOps(rewritten));
    if (prepared) {
      pp->truman = rewritten;
      ns = TimeNs([&] {
        to_run = bindings.empty()
                     ? rewritten
                     : algebra::NormalizePlan(
                           algebra::BindPlanParams(rewritten, bindings));
      });
      s.bind_ns += ns;
      layers += ns;
      prepared_work += ns;
    } else {
      to_run = rewritten;
    }
  } else if (st.mode == Mode::kNonTruman) {
    bool fresh = res != nullptr ? !res->validity_from_cache
                                : !verdict_from_cache;
    if (fresh) {
      std::vector<core::InstantiatedView> views;
      double inst = TimeNs([&] {
        views = Must(core::InstantiateAvailableViews(db.catalog(), ctx),
                     "instantiate views");
      });
      core::ValidityChecker checker(db.catalog(), &db.state(),
                                    EngineValidityOptions(db));
      core::ValidityReport report;
      double check = TimeNs(
          [&] { report = Must(checker.Check(plan, views), "validity check"); });
      s.instantiate_ns += inst;
      s.check_ns += check;
      ++s.check_n;
      s.validity_memo_exprs += static_cast<double>(report.memo_exprs);
      s.views_pruned += static_cast<double>(report.views_pruned);
      s.views_considered += static_cast<double>(report.views_considered);
      s.probes += static_cast<double>(report.c3_probes);
      s.xc_validity_ns += inst + check;
      layers += inst + check;
      prepared_work += inst + check;
    }
  }

  {
    std::lock_guard<std::mutex> lock(probes_mu_);
    if (probes_.size() < 64 && (c.seen++ % 4) == 0) {
      probes_.push_back({ctx, plan, truman_in, to_run});
    }
  }

  if (res != nullptr) {
    // optimizer + exec: the work of Database::RunPlan.
    optimizer::OptimizeResult best;
    ns = TimeNs([&] {
      best = Must(optimizer::Optimize(to_run, db.options().exec_expand,
                                      RowCounter(db)),
                  "optimize");
    });
    s.optimize_ns += ns;
    ++s.optimize_n;
    s.optimizer_memo_exprs += static_cast<double>(best.memo_exprs);
    double run = ns;
    size_t threads = ExecThreads(db, ctx);
    storage::Relation rel;
    ns = TimeNs([&] {
      rel = Must(exec::ParallelExecutePlan(best.plan, db.state(), threads,
                                           nullptr, nullptr, nullptr,
                                           DagFor(ctx)),
                 "execute");
    });
    s.exec_ns += ns;
    ++s.exec_n;
    run += ns;
    s.xc_exec_ns += run;
    layers += run;
    prepared_work += run;
    if (s.exec_n % 8 == 1) {
      // A profiled execution, untimed, for rows examined per row returned.
      exec::ExecStats stats;
      Must(exec::ParallelExecutePlan(best.plan, db.state(), threads, nullptr,
                                     &stats, nullptr, DagFor(ctx)),
           "profiled execute");
      s.rows_scanned += RowsScanned(best.plan, stats);
      s.rows_returned += static_cast<double>(rel.num_rows());
    }
  }
  if (prepared) s.xc_prepared_ns += prepared_work;
  s.read_wall_ns += wall_ns;
  s.read_layers_ns += layers;
  ++s.read_n;
}

EngineCounters EngineCounters::Read(core::Database& db) {
  EngineCounters e;
  e.verdict_hits = db.metrics().counter("validity.cache_hits").value();
  e.verdict_misses = db.metrics().counter("validity.cache_misses").value();
  e.stmt_hits = db.statement_cache().hits();
  e.stmt_misses = db.statement_cache().misses();
  e.evictions =
      db.validity_cache().evictions() + db.statement_cache().evictions();
  exec::PipelineScheduler& sched = exec::PipelineScheduler::Shared();
  e.tasks = sched.tasks_dispatched();
  e.task_wait_us = sched.total_task_queue_wait_us();
  e.task_run_us = sched.total_task_run_us();
  e.audit_emitted = db.audit_log().events_emitted();
  e.audit_dropped = db.audit_log().events_dropped();
  common::MetricsSnapshot snap = db.metrics().Snapshot();
  for (const char* name :
       {"validity.check_us", "exec.run_us", "prepared.execute_us"}) {
    auto it = snap.histograms.find(name);
    if (it != snap.histograms.end()) {
      e.hist[name] = {it->second.count, it->second.sum};
    }
  }
  return e;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t HistSum(const EngineCounters& e, const std::string& name) {
  auto it = e.hist.find(name);
  return it == e.hist.end() ? 0 : it->second.second;
}

}  // namespace

LayerReport BuildLayerReport(Bench& bench, const TraceSink& sink,
                             const EngineCounters& a0,
                             const EngineCounters& a1, uint64_t stmts_a,
                             double wall_a_s, const EngineCounters& b0,
                             const EngineCounters& b1, double bound) {
  core::Database& db = bench.db();
  LayerSums t = sink.Total();
  LayerReport rep;
  auto& m = rep.metrics;
  const std::vector<ProbeInput>& inputs = sink.probes();

  m["sql.parse_us"] = Ratio(t.parse_ns, t.parse_n) / 1000.0;
  m["algebra.bind_us"] = Ratio(t.bind_ns, t.bind_n) / 1000.0;
  m["optimizer.optimize_us"] = Ratio(t.optimize_ns, t.optimize_n) / 1000.0;
  m["optimizer.memo_exprs"] = Ratio(t.optimizer_memo_exprs, t.optimize_n);
  m["exec.run_us"] = Ratio(t.exec_ns, t.exec_n) / 1000.0;
  m["exec.rows_examined_per_row"] =
      Ratio(t.rows_scanned, std::max(1.0, t.rows_returned));
  m["truman.plan_ops_ratio"] = Ratio(t.truman_ops_after, t.truman_ops_before);
  m["residual_us"] = Ratio(t.read_wall_ns - t.read_layers_ns, t.read_n) / 1000.0;

  // Layers the statement stream never entered get a cold probe on inputs
  // taken from the stream, so every per-call cost is a measurement.
  if (t.policy_n == 0) {
    rep.probed.push_back("catalog.policy_change_us");
    const std::string view = bench.spec().grants.front();
    for (int i = 0; i < 8; ++i) {
      std::string sid = Universe::Sid(bench.Principal(i));
      for (const std::string& sql :
           {"revoke select on " + view + " from " + sid,
            "grant select on " + view + " to " + sid}) {
        Status st;
        t.policy_ns += TimeNs([&] { st = db.ExecuteAsAdmin(sql).status(); });
        if (!st.ok()) ReplayFailed(sql, st);
        ++t.policy_n;
      }
    }
  }
  m["catalog.policy_change_us"] = Ratio(t.policy_ns, t.policy_n) / 1000.0;

  if (t.rewrite_n == 0) {
    rep.probed.push_back("truman.rewrite_us");
    for (const ProbeInput& in : inputs) {
      core::SessionContext ctx = in.ctx;
      ctx.set_mode(core::EnforcementMode::kTruman);
      t.rewrite_ns += TimeNs([&] {
        (void)algebra::NormalizePlan(Must(
            core::TrumanRewrite(in.truman_in, db.catalog(), ctx), "rewrite"));
      });
      ++t.rewrite_n;
    }
  }
  m["truman.rewrite_us"] = Ratio(t.rewrite_ns, t.rewrite_n) / 1000.0;

  if (t.check_n == 0) {
    rep.probed.push_back("validity.*");
    for (const ProbeInput& in : inputs) {
      core::SessionContext ctx = in.ctx;
      ctx.set_mode(core::EnforcementMode::kNonTruman);
      std::vector<core::InstantiatedView> views;
      t.instantiate_ns += TimeNs([&] {
        views = Must(core::InstantiateAvailableViews(db.catalog(), ctx),
                     "instantiate views");
      });
      core::ValidityChecker checker(db.catalog(), &db.state(),
                                    EngineValidityOptions(db));
      core::ValidityReport report;
      t.check_ns += TimeNs(
          [&] { report = Must(checker.Check(in.plan, views), "check"); });
      ++t.check_n;
      t.validity_memo_exprs += static_cast<double>(report.memo_exprs);
      t.views_pruned += static_cast<double>(report.views_pruned);
      t.views_considered += static_cast<double>(report.views_considered);
      t.probes += static_cast<double>(report.c3_probes);
    }
  }
  m["validity.instantiate_us"] = Ratio(t.instantiate_ns, t.check_n) / 1000.0;
  m["validity.check_us"] = Ratio(t.check_ns, t.check_n) / 1000.0;
  m["validity.memo_exprs"] = Ratio(t.validity_memo_exprs, t.check_n);
  m["validity.views_pruned_share"] = Ratio(t.views_pruned, t.views_considered);
  m["validity.probes"] = Ratio(t.probes, t.check_n);

  // Engine counters over the untraced half: the replays above would
  // otherwise count their own scheduler tasks.
  double stmts = static_cast<double>(std::max<uint64_t>(1, stmts_a));
  m["cache.verdict_hit_rate"] =
      Ratio(static_cast<double>(a1.verdict_hits - a0.verdict_hits),
            static_cast<double>(a1.verdict_hits - a0.verdict_hits +
                                a1.verdict_misses - a0.verdict_misses));
  m["cache.verdict_evictions"] =
      1000.0 * static_cast<double>(a1.evictions - a0.evictions) / stmts;
  m["cache.statement_hit_rate"] =
      Ratio(static_cast<double>(a1.stmt_hits - a0.stmt_hits),
            static_cast<double>(a1.stmt_hits - a0.stmt_hits + a1.stmt_misses -
                                a0.stmt_misses));
  double tasks = static_cast<double>(a1.tasks - a0.tasks);
  m["exec.tasks_per_stmt"] = tasks / stmts;
  double pool = static_cast<double>(common::ThreadPool::Shared().num_threads());
  m["exec.pool_busy_share"] =
      Ratio(static_cast<double>(a1.task_run_us - a0.task_run_us),
            wall_a_s * 1e6 * pool);
  double wait_us = static_cast<double>(a1.task_wait_us - a0.task_wait_us);
  if (tasks == 0) {
    // The stream never entered the scheduler (parallelism 1): probe it
    // with the stream's own plans at two tasks each.
    rep.probed.push_back("exec.task_wait_us");
    EngineCounters p0 = EngineCounters::Read(db);
    for (const ProbeInput& in : inputs) {
      optimizer::OptimizeResult best = Must(
          optimizer::Optimize(in.to_run, db.options().exec_expand,
                              RowCounter(db)),
          "optimize");
      Must(exec::ParallelExecutePlan(best.plan, db.state(), 2, nullptr,
                                     nullptr, nullptr, DagFor(in.ctx)),
           "execute");
    }
    EngineCounters p1 = EngineCounters::Read(db);
    tasks = static_cast<double>(p1.tasks - p0.tasks);
    wait_us = static_cast<double>(p1.task_wait_us - p0.task_wait_us);
  }
  m["exec.task_wait_us"] = Ratio(wait_us, tasks);

  if (t.rebuild_n == 0) {
    rep.probed.push_back("storage.rebuild_us");
    // A write that changes no value still invalidates the snapshot.
    Status st = db.ExecuteAsAdmin("update grades set grade = grade where "
                                  "student-id = 's0'")
                    .status();
    if (!st.ok()) ReplayFailed("rebuild probe", st);
    t.rebuild_ns += ScanGradesNs(db);
    ++t.rebuild_n;
  }
  m["storage.rebuild_us"] = Ratio(t.rebuild_ns, t.rebuild_n) / 1000.0;
  m["storage.memory_high_water_mb"] =
      static_cast<double>(db.memory_tracker().high_water()) / (1024.0 * 1024.0);
  // Over the untraced half only: set-up scripts emit thousands of events in
  // one burst, which is not what the workload does.
  m["audit.dropped_share"] =
      Ratio(static_cast<double>(a1.audit_dropped - a0.audit_dropped),
            static_cast<double>(a1.audit_emitted - a0.audit_emitted));

  // Mean per traced read statement: the layers plus the residual add up to
  // the statement's wall time.
  double reads = static_cast<double>(std::max<uint64_t>(1, t.read_n));
  LayerSums stream = sink.Total();
  rep.breakdown_us = {
      {"wall", stream.read_wall_ns / reads / 1000.0},
      {"sql.parse", stream.parse_ns / reads / 1000.0},
      {"algebra.bind", stream.bind_ns / reads / 1000.0},
      {"truman.rewrite", stream.rewrite_ns / reads / 1000.0},
      {"validity.instantiate", stream.instantiate_ns / reads / 1000.0},
      {"validity.check", stream.check_ns / reads / 1000.0},
      {"optimizer.optimize", stream.optimize_ns / reads / 1000.0},
      {"exec.run", stream.exec_ns / reads / 1000.0},
      {"residual", (stream.read_wall_ns - stream.read_layers_ns) / reads /
                       1000.0},
  };

  // Cross-check against the engine's own histograms over the traced half.
  // A replay that keeps timing work the engine no longer does drifts away
  // from 1 on the first two; prepared.execute_us also holds the residual,
  // so its replay may only fall short.
  struct Check {
    const char* hist;
    double replay_ns;
    bool two_sided;
  };
  for (const Check& c : {Check{"validity.check_us", stream.xc_validity_ns, true},
                         Check{"exec.run_us", stream.xc_exec_ns, true},
                         Check{"prepared.execute_us", stream.xc_prepared_ns,
                               false}}) {
    double engine_us = static_cast<double>(HistSum(b1, c.hist) -
                                           HistSum(b0, c.hist));
    // Nothing replayed (every verdict came from a cache): nothing to compare.
    if (c.replay_ns <= 0) continue;
    double ratio = Ratio(c.replay_ns / 1000.0, engine_us);
    rep.cross_check[c.hist] = ratio;
    bool off = c.two_sided ? std::fabs(ratio - 1.0) > bound
                           : ratio > 1.0 + bound;
    if (off) rep.flags.push_back(c.hist);
  }
  return rep;
}

}  // namespace fgac::perfbench
