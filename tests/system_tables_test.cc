// Tests for the FGAC-governed observability catalog: the fgac_audit /
// fgac_spans system tables bootstrapped by every Database, the per-user
// authorization views that let a session read its OWN audit rows (granted
// to public, installed as the Truman policy views), the _all views for
// admin and auditor principals, and the read-only enforcement over the
// fgac_ namespace. The audit log is exercised through real mixed
// workloads: accepted, rejected and degraded statements all land as rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "common/query_guard.h"
#include "core/database.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::MustQuery;
using fgac::testing::MustQueryAdmin;
using fgac::testing::SetupUniversity;

class SystemTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11;"
                                  "grant select on mygrades to 12")
                    .ok());
  }

  static SessionContext Student(const std::string& id, EnforcementMode mode) {
    SessionContext ctx(id);
    ctx.set_mode(mode);
    return ctx;
  }

  /// Runs one accepted and one rejected statement as each of users 11, 12.
  void RunMixedWorkload() {
    for (const char* user : {"11", "12"}) {
      SessionContext ctx = Student(user, EnforcementMode::kNonTruman);
      auto ok = db_.Execute(
          "select grade from grades where student-id = '" +
              std::string(user) + "'",
          ctx);
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      auto rejected = db_.Execute("select * from grades", ctx);
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kNotAuthorized);
    }
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------------

TEST_F(SystemTablesTest, BootstrapCreatesTablesViewsAndGrants) {
  EXPECT_NE(db_.catalog().GetTable("fgac_audit"), nullptr);
  EXPECT_NE(db_.catalog().GetTable("fgac_spans"), nullptr);
  for (const char* view : {"fgac_my_audit", "fgac_my_spans", "fgac_audit_all",
                           "fgac_spans_all"}) {
    EXPECT_NE(db_.catalog().GetView(view), nullptr) << view;
  }
}

// ---------------------------------------------------------------------------
// Self-governed access: own rows vs. all rows
// ---------------------------------------------------------------------------

TEST_F(SystemTablesTest, TrumanSelectSeesOnlyOwnAuditRows) {
  RunMixedWorkload();
  // A bare `select * from fgac_audit` in Truman mode is transparently
  // narrowed to the session user's own events via fgac_my_audit.
  SessionContext ctx = Student("11", EnforcementMode::kTruman);
  auto r = db_.Execute("select user_name, verdict from fgac_audit", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r.value().relation.num_rows(), 2u);
  std::set<std::string> verdicts;
  for (const Row& row : r.value().relation.rows()) {
    EXPECT_EQ(row[0], Value::String("11"));
    verdicts.insert(row[1].string_value());
  }
  // Both the accepted and the rejected statement left a row.
  EXPECT_TRUE(verdicts.count("unconditional") || verdicts.count("conditional"))
      << "no accepted-statement row";
  EXPECT_EQ(verdicts.count("rejected"), 1u);
}

TEST_F(SystemTablesTest, NonTrumanSelfScopedAuditQueryIsValid) {
  RunMixedWorkload();
  // fgac_my_audit instantiates to `user_name = '12'` for this session, so
  // the explicitly self-scoped query is authorized by containment.
  SessionContext ctx = Student("12", EnforcementMode::kNonTruman);
  auto r = db_.Execute(
      "select user_name, statement from fgac_audit where user_name = '12'",
      ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r.value().relation.num_rows(), 2u);
  for (const Row& row : r.value().relation.rows()) {
    EXPECT_EQ(row[0], Value::String("12"));
  }
  // The same session asking for ANOTHER user's audit rows is rejected —
  // and that rejection is itself audited.
  auto peek = db_.Execute(
      "select * from fgac_audit where user_name = '11'", ctx);
  ASSERT_FALSE(peek.ok());
  EXPECT_EQ(peek.status().code(), StatusCode::kNotAuthorized);
}

TEST_F(SystemTablesTest, SystemTableReadsCacheOnlyUnconditionalAcceptances) {
  // A statement reading an fgac_ table reads a private snapshot that the
  // data version does not cover, so only its unconditional acceptances are
  // cached.
  RunMixedWorkload();
  SessionContext ctx = Student("12", EnforcementMode::kNonTruman);
  const std::string own =
      "select user_name, statement from fgac_audit where user_name = '12'";
  auto first = db_.Execute(own, ctx);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().validity.unconditional);
  EXPECT_FALSE(first.value().validity_from_cache);
  auto second = db_.Execute(own, ctx);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().validity_from_cache);
  // A rejection is checked again every time.
  common::Counter& misses = db_.metrics().counter("validity.cache_misses");
  for (int i = 0; i < 2; ++i) {
    const uint64_t before = misses.value();
    auto peek =
        db_.Execute("select * from fgac_audit where user_name = '11'", ctx);
    ASSERT_FALSE(peek.ok());
    EXPECT_EQ(peek.status().code(), StatusCode::kNotAuthorized);
    EXPECT_EQ(misses.value(), before + 1);
  }
}

TEST_F(SystemTablesTest, AdminAndAuditorSeeAllRows) {
  RunMixedWorkload();
  storage::Relation all =
      MustQueryAdmin(&db_, "select user_name from fgac_audit");
  std::set<std::string> users;
  for (const Row& row : all.rows()) users.insert(row[0].string_value());
  EXPECT_TRUE(users.count("11"));
  EXPECT_TRUE(users.count("12"));

  // The dedicated auditor principal reads everything through the granted
  // _all view, without being admin.
  SessionContext auditor = Student("auditor", EnforcementMode::kNonTruman);
  auto r = db_.Execute("select user_name from fgac_audit_all", auditor);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> seen;
  for (const Row& row : r.value().relation.rows())
    seen.insert(row[0].string_value());
  EXPECT_TRUE(seen.count("11"));
  EXPECT_TRUE(seen.count("12"));

  // An ordinary user holds no grant on the _all view.
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  auto denied = db_.Execute("select * from fgac_audit_all", ctx);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kNotAuthorized);
}

// ---------------------------------------------------------------------------
// Row content
// ---------------------------------------------------------------------------

TEST_F(SystemTablesTest, AuditRowsCarryVerdictStatusAndHash) {
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  ASSERT_TRUE(db_.Execute(q, ctx).ok());  // second run: validity cache hit
  auto rejected = db_.Execute("select * from grades", ctx);
  ASSERT_FALSE(rejected.ok());

  storage::Relation rows = MustQueryAdmin(
      &db_,
      "select statement, verdict, status, error, statement_hash, from_cache,"
      " rows_out, session_id from fgac_audit where user_name = '11'");
  ASSERT_EQ(rows.num_rows(), 3u);
  const Row& first = rows.rows()[0];
  const Row& second = rows.rows()[1];
  const Row& third = rows.rows()[2];

  EXPECT_EQ(first[0], Value::String(q));
  EXPECT_EQ(first[2], Value::String("ok"));
  EXPECT_EQ(first[3], Value::String(""));
  EXPECT_EQ(first[5], Value::Bool(false));
  EXPECT_EQ(first[6], Value::Int(2));  // alice has two grades

  // Same statement, same 16-char hash; the second run came from the cache.
  EXPECT_EQ(second[4], first[4]);
  EXPECT_EQ(first[4].string_value().size(), 16u);
  EXPECT_EQ(second[5], Value::Bool(true));

  EXPECT_EQ(third[1], Value::String("rejected"));
  EXPECT_EQ(third[2], Value::String("not_authorized"));
  EXPECT_FALSE(third[3].string_value().empty());
  // All three statements ran in one session.
  EXPECT_EQ(first[7], third[7]);
}

TEST_F(SystemTablesTest, DegradedStatementIsAuditedAsDegradation) {
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  common::QueryLimits limits;
  limits.degrade_policy = common::DegradePolicy::kTruman;
  ctx.set_query_limits(limits);
  auto r = db_.Execute("select grade from grades where student-id = '11'",
                       ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().degraded_to_truman);
  db_.options().validity.check_timeout = std::chrono::microseconds(0);

  storage::Relation rows = MustQueryAdmin(
      &db_, "select verdict from fgac_audit where user_name = '11'");
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.rows()[0][0], Value::String("degraded_to_truman"));
}

TEST_F(SystemTablesTest, ParseFailuresAreAuditedToo) {
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  auto r = db_.Execute("selec oops", ctx);
  ASSERT_FALSE(r.ok());
  storage::Relation rows = MustQueryAdmin(
      &db_,
      "select statement, verdict from fgac_audit where user_name = '11'");
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.rows()[0][0], Value::String("selec oops"));
  EXPECT_EQ(rows.rows()[0][1], Value::String("error"));
}

TEST_F(SystemTablesTest, SpansTableServesTracedStatements) {
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  ctx.set_trace(true);
  ctx.set_trace_id(4242);
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  storage::Relation spans = MustQueryAdmin(
      &db_,
      "select span_name, user_name from fgac_spans where trace_id = 4242");
  ASSERT_GE(spans.num_rows(), 3u);
  std::set<std::string> names;
  for (const Row& row : spans.rows()) {
    names.insert(row[0].string_value());
    EXPECT_EQ(row[1], Value::String("11"));
  }
  EXPECT_TRUE(names.count("query"));
  EXPECT_TRUE(names.count("validity.check"));
  EXPECT_TRUE(names.count("exec"));

  // The span tree correlates with the audit row through trace_id.
  storage::Relation audit = MustQueryAdmin(
      &db_, "select trace_id from fgac_audit where user_name = '11'");
  ASSERT_EQ(audit.num_rows(), 1u);
  EXPECT_EQ(audit.rows()[0][0], Value::Int(4242));

  // Per-user span visibility mirrors the audit table: Truman-mode users
  // see their own spans only.
  SessionContext other = Student("12", EnforcementMode::kTruman);
  auto own = db_.Execute("select user_name from fgac_spans", other);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  for (const Row& row : own.value().relation.rows()) {
    EXPECT_EQ(row[0], Value::String("12"));
  }
}

TEST_F(SystemTablesTest, EveryStatementLeavesOneAuditEventAndOneActivity) {
  const uint64_t emitted = db_.audit_log().events_emitted();
  const uint64_t begun = db_.activity().statements_begun();
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  ASSERT_TRUE(db_.ExecuteScript("insert into courses values ('cs9', 'x');"
                                "select * from courses")
                  .ok());
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(
      s->Execute("prepare mine as select grade from grades "
                 "where student-id = $1")
          .ok());
  ASSERT_TRUE(s->Execute("execute mine ('11')").ok());
  ASSERT_TRUE(db_.Execute("explain analyze " + q, ctx).ok());
  cm.CloseAll();
  constexpr uint64_t kStatements = 6;
  EXPECT_EQ(db_.audit_log().events_emitted(), emitted + kStatements);
  EXPECT_EQ(db_.activity().statements_begun(), begun + kStatements);

  // The phase split fits inside the statement's duration, profiled or not.
  storage::Relation rows = MustQueryAdmin(
      &db_, "select statement, duration_us, validity_us, exec_us "
            "from fgac_audit");
  int runs = 0;
  int64_t exec_total = 0;
  for (const Row& row : rows.rows()) {
    std::string text = row[0].string_value();
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (text.rfind("select", 0) != 0 && text.rfind("execute", 0) != 0 &&
        text.rfind("explain", 0) != 0) {
      continue;
    }
    ++runs;
    exec_total += row[3].int_value();
    EXPECT_LE(row[2].int_value() + row[3].int_value(), row[1].int_value())
        << text;
  }
  EXPECT_EQ(runs, 4);
  EXPECT_GT(exec_total, 0);
}

TEST_F(SystemTablesTest, ProfiledStatementsCarryTraceAndStats) {
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(
      db_.Execute("select course-id from grades where student-id = '11'", ctx)
          .ok());
  ctx.set_profile(true);
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  ASSERT_FALSE(db_.Execute("select * from grades", ctx).ok());

  storage::Relation rows = MustQueryAdmin(
      &db_, "select verdict, trace, stats from fgac_audit "
            "where user_name = '11'");
  ASSERT_EQ(rows.num_rows(), 3u);
  // Unprofiled: no rendered text.
  EXPECT_EQ(rows.rows()[0][1], Value::String(""));
  EXPECT_EQ(rows.rows()[0][2], Value::String(""));
  // Profiled: the validity trace ends in its verdict, and the executed
  // plan's operator stats are rendered.
  EXPECT_NE(rows.rows()[1][1].string_value().find("verdict"),
            std::string::npos);
  EXPECT_FALSE(rows.rows()[1][2].string_value().empty());
  // A rejection keeps the trace of why, though nothing executed.
  EXPECT_EQ(rows.rows()[2][0], Value::String("rejected"));
  EXPECT_NE(rows.rows()[2][1].string_value().find("verdict"),
            std::string::npos);
  EXPECT_EQ(rows.rows()[2][2], Value::String(""));
}

TEST_F(SystemTablesTest, AuditTableSeesEventsFromTheSameSessionPromptly) {
  // The snapshot a SELECT over fgac_audit reads must already include the
  // statement executed IMMEDIATELY before it (taking the snapshot flushes
  // the ring synchronously — no waiting for the background cadence).
  SessionContext ctx = Student("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  storage::Relation rows = MustQueryAdmin(
      &db_, "select statement from fgac_audit where user_name = '11'");
  ASSERT_EQ(rows.num_rows(), 1u);
}

TEST_F(SystemTablesTest, ExplainCostsSystemTablesOverTheStatementState) {
  // The live fgac_audit table stays empty; EXPLAIN costs its plan over the
  // statement state, as the SELECT runs, so the estimate counts the
  // snapshot's rows.
  constexpr int kStatements = 100;
  for (int i = 0; i < kStatements; ++i) {
    MustQueryAdmin(&db_, "select count(*) from students");
  }
  storage::Relation explain =
      MustQueryAdmin(&db_, "explain select * from fgac_audit");
  std::string text;
  for (const auto& row : explain.rows()) text += row[0].string_value() + "\n";
  const std::string marker = "est. rows ";
  size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_GE(std::stod(text.substr(at + marker.size())), kStatements) << text;
}

// ---------------------------------------------------------------------------
// Read-only enforcement
// ---------------------------------------------------------------------------

TEST_F(SystemTablesTest, SystemTablesRejectAllMutation) {
  const char* mutations[] = {
      "insert into fgac_audit values (1)",
      "update fgac_audit set user_name = 'x' where seq = 1",
      "delete from fgac_audit",
      "drop table fgac_audit",
      "drop view fgac_my_audit",
      "drop table fgac_spans",
  };
  for (const char* sql : mutations) {
    auto r = db_.ExecuteAsAdmin(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // The reserved namespace also rejects new user objects.
  auto create = db_.ExecuteAsAdmin("create table fgac_mine (a int)");
  ASSERT_FALSE(create.ok());
  auto view = db_.ExecuteAsAdmin(
      "create view fgac_v as select * from students");
  ASSERT_FALSE(view.ok());
}

}  // namespace
}  // namespace fgac
