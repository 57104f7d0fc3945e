// EXPLAIN ANALYZE and ValidityTrace coverage: the rule-application
// sequence recorded for unconditional (U-rule) and conditional (C3)
// acceptances, rejections and Truman degradations; per-operator row
// counts matching result cardinalities in serial and parallel execution;
// and the SQL-level EXPLAIN ANALYZE rendering.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "core/database.h"
#include "core/validity_trace.h"
#include "exec/exec_stats.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::ExecResult;
using core::SessionContext;
using core::ValidityTraceEvent;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
  }

  void Grant(const std::string& view, const std::string& user) {
    ASSERT_TRUE(
        db_.ExecuteAsAdmin("grant select on " + view + " to " + user).ok());
  }

  // Rows of an EXPLAIN [ANALYZE] result joined into one text blob.
  std::string ExplainText(const std::string& sql, const SessionContext& ctx) {
    auto r = db_.Execute(sql, ctx);
    EXPECT_TRUE(r.ok()) << r.status().message();
    if (!r.ok()) return "";
    std::string text;
    for (const auto& row : r.value().relation.rows()) {
      text += row[0].string_value() + "\n";
    }
    return text;
  }

  static bool HasEvent(const core::ValidityTrace& trace,
                       ValidityTraceEvent::Kind kind) {
    for (const auto& e : trace.events()) {
      if (e.kind == kind) return true;
    }
    return false;
  }

  Database db_;
};

TEST_F(ExplainAnalyzeTest, UnconditionalAcceptanceTracesURule) {
  Grant("mygrades", "11");
  SessionContext ctx("11");
  ctx.set_profile(true);
  auto r = db_.Execute("select grade from grades where student-id = '11'",
                       ctx);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const ExecResult& res = r.value();
  ASSERT_NE(res.trace, nullptr);
  ASSERT_NE(res.exec_stats, nullptr);

  // Cache miss, U1 instantiation of mygrades, unconditional verdict.
  EXPECT_TRUE(HasEvent(*res.trace, ValidityTraceEvent::Kind::kCacheMiss));
  EXPECT_TRUE(res.trace->FiredRule("U1"));
  const auto& last = res.trace->events().back();
  EXPECT_EQ(last.kind, ValidityTraceEvent::Kind::kVerdict);
  EXPECT_TRUE(last.valid);
  EXPECT_TRUE(last.unconditional);
  EXPECT_EQ(res.trace->TotalProbes(), 0u);  // U rules never touch the data

  // The executed plan is annotated and its root produced the result rows.
  ASSERT_NE(res.exec_stats->executed_plan(), nullptr);
  const exec::OpStats* root =
      res.exec_stats->Find(res.exec_stats->executed_plan().get());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->rows_out.load(), res.relation.num_rows());
}

TEST_F(ExplainAnalyzeTest, ConditionalAcceptanceTracesC3AndProbes) {
  Grant("costudentgrades", "11");
  Grant("myregistrations", "11");
  SessionContext ctx("11");
  ctx.set_profile(true);
  auto r = db_.Execute("select * from grades where course-id = 'cs101'", ctx);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const ExecResult& res = r.value();
  ASSERT_NE(res.trace, nullptr);
  EXPECT_FALSE(res.validity.unconditional);

  // C3 fired, backed by at least one recorded LIMIT-1 probe batch whose
  // probe SQL was captured for the audit trail.
  EXPECT_TRUE(res.trace->FiredRule("C3a/C3b"));
  EXPECT_GT(res.trace->TotalProbes(), 0u);
  bool saw_probe_sql = false;
  for (const auto& e : res.trace->events()) {
    if (e.kind == ValidityTraceEvent::Kind::kProbeBatch &&
        !e.probe_sql.empty()) {
      saw_probe_sql = true;
      EXPECT_GE(e.probes, e.probe_rows);  // non-empty probes are a subset
    }
  }
  EXPECT_TRUE(saw_probe_sql);
  const auto& last = res.trace->events().back();
  EXPECT_EQ(last.kind, ValidityTraceEvent::Kind::kVerdict);
  EXPECT_TRUE(last.valid);
  EXPECT_FALSE(last.unconditional);
}

TEST_F(ExplainAnalyzeTest, SecondRunTracesCacheHit) {
  Grant("mygrades", "11");
  SessionContext ctx("11");
  ctx.set_profile(true);
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  auto r = db_.Execute(q, ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().trace, nullptr);
  EXPECT_TRUE(r.value().validity_from_cache);
  EXPECT_TRUE(HasEvent(*r.value().trace, ValidityTraceEvent::Kind::kCacheHit));
  // A cached verdict replays no rules.
  EXPECT_TRUE(r.value().trace->RuleSequence().empty());
}

TEST_F(ExplainAnalyzeTest, DegradedRunTracesDegradationAndReason) {
  Grant("mygrades", "11");
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  SessionContext ctx("11");
  ctx.set_profile(true);
  common::QueryLimits limits;
  limits.degrade_policy = common::DegradePolicy::kTruman;
  ctx.set_query_limits(limits);
  auto r = db_.Execute("select grade from grades where student-id = '11'",
                       ctx);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().degraded_to_truman);
  ASSERT_NE(r.value().trace, nullptr);
  bool saw = false;
  for (const auto& e : r.value().trace->events()) {
    if (e.kind == ValidityTraceEvent::Kind::kDegraded) {
      saw = true;
      EXPECT_NE(e.detail.find("degraded to Truman"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw);
  std::string jsonl = r.value().trace->ToJsonLines();
  EXPECT_NE(jsonl.find("\"event\":\"degraded_to_truman\""),
            std::string::npos);
}

TEST_F(ExplainAnalyzeTest, PerOperatorRowsMatchSerialAndParallel) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SessionContext admin("admin");
    admin.set_mode(EnforcementMode::kNone);
    admin.set_profile(true);
    admin.set_exec_parallelism(threads);
    auto r = db_.Execute("select * from grades", admin);
    ASSERT_TRUE(r.ok()) << r.status().message();
    const ExecResult& res = r.value();
    ASSERT_NE(res.exec_stats, nullptr);
    ASSERT_NE(res.exec_stats->executed_plan(), nullptr);
    const exec::OpStats* root =
        res.exec_stats->Find(res.exec_stats->executed_plan().get());
    ASSERT_NE(root, nullptr) << "threads=" << threads;
    EXPECT_EQ(res.relation.num_rows(), 4u);
    EXPECT_EQ(root->rows_out.load(), 4u) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_EQ(res.exec_stats->threads(), threads);
      uint64_t morsels = 0;
      for (uint64_t m : res.exec_stats->worker_morsels()) morsels += m;
      EXPECT_GE(morsels, 1u);
    }
  }
}

TEST_F(ExplainAnalyzeTest, AggregateRowsMatchGroupCount) {
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  admin.set_profile(true);
  admin.set_exec_parallelism(4);
  auto r = db_.Execute(
      "select course-id, avg(grade) from grades group by course-id", admin);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const ExecResult& res = r.value();
  ASSERT_NE(res.exec_stats, nullptr);
  const exec::OpStats* root =
      res.exec_stats->Find(res.exec_stats->executed_plan().get());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->rows_out.load(), res.relation.num_rows());
  EXPECT_EQ(res.relation.num_rows(), 2u);  // cs101, cs202
}

TEST_F(ExplainAnalyzeTest, SqlRenderingShowsPlanAndTrace) {
  Grant("mygrades", "11");
  SessionContext ctx("11");
  std::string text = ExplainText(
      "explain analyze select grade from grades where student-id = '11'",
      ctx);
  EXPECT_NE(text.find("canonical plan:"), std::string::npos);
  EXPECT_NE(text.find("validity: unconditionally valid via"),
            std::string::npos);
  EXPECT_NE(text.find("execution:"), std::string::npos);
  EXPECT_NE(text.find("[rows="), std::string::npos);
  EXPECT_NE(text.find("Scan(grades)"), std::string::npos);
  EXPECT_NE(text.find("validity trace:"), std::string::npos);
  EXPECT_NE(text.find("rule_fired U1"), std::string::npos);
  EXPECT_NE(text.find("result: 2 row(s)"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, SqlRenderingOfRejectionKeepsTrace) {
  // User 12 holds only mygrades; SELECT * over all grades must be
  // rejected — and EXPLAIN ANALYZE must say why instead of erroring.
  Grant("mygrades", "12");
  SessionContext ctx("12");
  std::string text =
      ExplainText("explain analyze select * from grades", ctx);
  EXPECT_NE(text.find("validity: REJECTED"), std::string::npos);
  EXPECT_NE(text.find("validity trace:"), std::string::npos);
  EXPECT_NE(text.find("verdict"), std::string::npos);
  // Nothing was executed, so no per-operator annotations appear.
  EXPECT_EQ(text.find("execution:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, JsonLinesOneObjectPerEvent) {
  Grant("mygrades", "11");
  SessionContext ctx("11");
  ctx.set_profile(true);
  auto r = db_.Execute("select grade from grades where student-id = '11'",
                       ctx);
  ASSERT_TRUE(r.ok());
  const auto& trace = *r.value().trace;
  std::string jsonl = trace.ToJsonLines();
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, trace.events().size());
  EXPECT_NE(jsonl.find("\"event\":\"cache_miss\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"rule_fired\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"rule\":\"U1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"verdict\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"valid\":true"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, SqlRenderingShowsPipelineDecomposition) {
  // Parallel execution renders the pipeline DAG the plan decomposed into:
  // one line per pipeline with kind, task count and dependency edges.
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  admin.set_exec_parallelism(4);
  std::string text = ExplainText(
      "explain analyze select course-id, avg(grade) from grades "
      "group by course-id",
      admin);
  EXPECT_NE(text.find("pipelines:"), std::string::npos) << text;
  // Aggregate root: a 4-task scan pipeline feeding a single-task merge
  // that depends on it.
  EXPECT_NE(text.find("p0 scan"), std::string::npos) << text;
  EXPECT_NE(text.find("p1 merge"), std::string::npos) << text;
  EXPECT_NE(text.find("tasks=4"), std::string::npos) << text;
  EXPECT_NE(text.find("deps=p0"), std::string::npos) << text;

  // A hash join adds a build pipeline gating the scan.
  text = ExplainText(
      "explain analyze select g.grade, s.name from grades g, students s "
      "where g.student-id = s.student-id",
      admin);
  EXPECT_NE(text.find("pipelines:"), std::string::npos) << text;
  EXPECT_NE(text.find("p0 build"), std::string::npos) << text;
  EXPECT_NE(text.find("p1 scan"), std::string::npos) << text;
  EXPECT_NE(text.find("deps=p0"), std::string::npos) << text;

  // Serial execution has no pipeline DAG to show.
  admin.set_exec_parallelism(1);
  text = ExplainText("explain analyze select * from grades", admin);
  EXPECT_EQ(text.find("pipelines:"), std::string::npos) << text;
}

TEST_F(ExplainAnalyzeTest, ExplainWithoutAnalyzeIsUnchanged) {
  Grant("mygrades", "11");
  SessionContext ctx("11");
  std::string text = ExplainText(
      "explain select grade from grades where student-id = '11'", ctx);
  EXPECT_NE(text.find("canonical plan:"), std::string::npos);
  EXPECT_NE(text.find("witness rewriting"), std::string::npos);
  EXPECT_EQ(text.find("execution:"), std::string::npos);
  EXPECT_EQ(text.find("validity trace:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AdHocExplainAnalyzeShowsVerdictProvenance) {
  // Student 11's Non-Truman C3 query: an ad-hoc statement reports where its
  // verdict came from exactly as EXPLAIN ANALYZE EXECUTE does.
  Grant("costudentgrades", "11");
  Grant("myregistrations", "11");
  SessionContext ctx("11");
  const std::string q =
      "explain analyze select * from grades where course-id = 'cs101'";
  std::string first = ExplainText(q, ctx);
  EXPECT_NE(first.find("verdict source: validity checker"), std::string::npos)
      << first;
  EXPECT_NE(first.find("validity: conditionally valid via"),
            std::string::npos)
      << first;
  std::string second = ExplainText(q, ctx);
  EXPECT_NE(second.find("verdict source: statement-cache hit"),
            std::string::npos)
      << second;
  EXPECT_NE(second.find("validity: conditionally valid via"),
            std::string::npos)
      << second;
}

TEST_F(ExplainAnalyzeTest, AdHocExplainAnalyzeRewritesTrumanPlanEveryRun) {
  // Ad-hoc Truman plans are never cached, so every run says it rewrote.
  Grant("mygrades", "11");
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kTruman);
  for (int run = 0; run < 2; ++run) {
    std::string text = ExplainText(
        "explain analyze select grade from grades where course-id = 'cs101'",
        ctx);
    EXPECT_NE(text.find("truman rewrite: rewritten this call"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("result: 1 row(s)"), std::string::npos) << text;
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE EXECUTE: profiling a prepared execution
// ---------------------------------------------------------------------------

/// Rows of a Session-level EXPLAIN joined into one text blob.
std::string SessionExplainText(server::Session* session,
                               const std::string& sql) {
  auto r = session->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().message();
  if (!r.ok()) return "";
  std::string text;
  for (const auto& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  return text;
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeExecuteShowsTrumanCacheProvenance) {
  Grant("mygrades", "11");
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  ASSERT_TRUE(
      s->Execute("prepare g as select grade from grades "
                 "where course-id = $1")
          .ok());
  // First profiled execution: the Truman rewrite happens on this call and
  // the report says so.
  std::string first = SessionExplainText(s.get(),
                                         "explain analyze execute g ('cs101')");
  EXPECT_NE(first.find("prepared statement: g"), std::string::npos) << first;
  EXPECT_NE(first.find("parameterized plan:"), std::string::npos);
  EXPECT_NE(first.find("truman rewrite: rewritten this call"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("result: 1 row(s)"), std::string::npos) << first;
  // Second profiled execution reuses the cached parameterized plan — the
  // provenance line flips to a statement-cache hit, and the profile still
  // covers a real run.
  std::string second = SessionExplainText(
      s.get(), "explain analyze execute g ('cs101')");
  EXPECT_NE(second.find("truman rewrite: statement-cache hit"),
            std::string::npos)
      << second;
  EXPECT_NE(second.find("result: 1 row(s)"), std::string::npos);
  cm.CloseAll();
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeExecuteShowsVerdictProvenance) {
  Grant("mygrades", "11");
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(
      s->Execute("prepare g as select grade from grades "
                 "where student-id = $user-id and course-id = $1")
          .ok());
  std::string first = SessionExplainText(s.get(),
                                         "explain analyze execute g ('cs101')");
  EXPECT_NE(first.find("verdict source: validity checker"), std::string::npos)
      << first;
  std::string second = SessionExplainText(
      s.get(), "explain analyze execute g ('cs101')");
  EXPECT_NE(second.find("verdict source: statement-cache hit"),
            std::string::npos)
      << second;
  // The analyze report carries the per-operator stats of the profiled run.
  EXPECT_NE(second.find("result: 1 row(s)"), std::string::npos) << second;
  cm.CloseAll();
}

TEST_F(ExplainAnalyzeTest, ExplainExecuteWithoutAnalyzeShowsPlanOnly) {
  Grant("mygrades", "11");
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(
      s->Execute("prepare g as select grade from grades "
                 "where student-id = $user-id")
          .ok());
  // Run once so the parameterized plan exists in the registry entry.
  ASSERT_TRUE(s->Execute("execute g").ok());
  std::string text = SessionExplainText(s.get(), "explain execute g");
  EXPECT_NE(text.find("prepared statement: g"), std::string::npos);
  EXPECT_NE(text.find("parameterized plan:"), std::string::npos);
  // No execution, no provenance, no profile.
  EXPECT_EQ(text.find("result:"), std::string::npos) << text;
  EXPECT_EQ(text.find("verdict source:"), std::string::npos);
  cm.CloseAll();
}

TEST_F(ExplainAnalyzeTest, ExplainExecuteErrors) {
  // Outside a connection session there is no prepared-statement registry.
  SessionContext ctx("11");
  auto adhoc = db_.Execute("explain analyze execute g ('cs101')", ctx);
  ASSERT_FALSE(adhoc.ok());
  EXPECT_EQ(adhoc.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(adhoc.status().ToString().find("connection session"),
            std::string::npos);
  // Through a session, an unknown name is reported as such.
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  auto unknown = s->Execute("explain analyze execute nosuch");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("unknown prepared statement"),
            std::string::npos);
  cm.CloseAll();
}

}  // namespace
}  // namespace fgac
