// End-to-end tests of the query guardrail subsystem: deadlines,
// cooperative cancellation, row/memory budgets, the Truman degradation
// policy for blown validity budgets, the bounded validity cache, and
// adversarial inputs that previously had unbounded cost. The invariant
// throughout: the engine never hangs and never crashes — every outcome is
// a clean Status (kTimeout / kCancelled / kResourceExhausted) or an
// answer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/query_guard.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::DegradePolicy;
using common::QueryGuard;
using common::QueryLimits;
using core::Database;
using core::DatabaseOptions;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

// ---------------------------------------------------------------------------
// QueryGuard unit behaviour
// ---------------------------------------------------------------------------

TEST(QueryGuardTest, UnlimitedGuardAlwaysPasses) {
  QueryGuard guard;
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.ChargeRows(1u << 20).ok());
  EXPECT_TRUE(guard.ChargeBytes(1ull << 40).ok());
}

TEST(QueryGuardTest, ExpiredDeadlineIsSticky) {
  QueryLimits limits;
  limits.timeout = std::chrono::microseconds(1);
  QueryGuard guard(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Status first = guard.Check();
  EXPECT_EQ(first.code(), StatusCode::kTimeout);
  // Sticky: stays failed on every later check.
  EXPECT_EQ(guard.Check().code(), StatusCode::kTimeout);
  EXPECT_EQ(guard.ChargeRows(1).code(), StatusCode::kTimeout);
}

TEST(QueryGuardTest, RowAndByteBudgets) {
  QueryLimits limits;
  limits.max_rows = 10;
  limits.max_memory_bytes = 100;
  QueryGuard guard(limits);
  EXPECT_TRUE(guard.ChargeRows(10).ok());
  EXPECT_EQ(guard.ChargeRows(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.rows_charged(), 11u);
  QueryGuard bytes_guard(limits);
  EXPECT_TRUE(bytes_guard.ChargeBytes(100).ok());
  EXPECT_EQ(bytes_guard.ChargeBytes(1).code(),
            StatusCode::kResourceExhausted);
}

TEST(QueryGuardTest, CancelObservedFromAnyHandle) {
  QueryGuard guard;
  EXPECT_FALSE(guard.cancelled());
  guard.Cancel();
  EXPECT_TRUE(guard.cancelled());
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
}

TEST(QueryGuardTest, ExternalTokenCancels) {
  auto token = std::make_shared<std::atomic<bool>>(false);
  QueryGuard guard;
  guard.AttachExternalCancel(token);
  EXPECT_TRUE(guard.Check().ok());
  token->store(true);
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
}

TEST(QueryGuardTest, ChildInheritsCancellationButNotBudgets) {
  QueryLimits parent_limits;
  parent_limits.max_rows = 5;
  QueryGuard parent(parent_limits);
  QueryLimits child_limits;
  child_limits.max_rows = 100;
  QueryGuard child(child_limits, &parent);
  // Separate budgets: the child can charge past the parent's row cap.
  EXPECT_TRUE(child.ChargeRows(50).ok());
  EXPECT_EQ(parent.rows_charged(), 0u);
  // Inherited cancellation: cancelling the parent trips the child.
  parent.Cancel();
  EXPECT_EQ(child.Check().code(), StatusCode::kCancelled);
}

TEST(QueryGuardTest, ChildNeverOutlivesParentDeadline) {
  QueryLimits parent_limits;
  parent_limits.timeout = std::chrono::microseconds(1);
  QueryGuard parent(parent_limits);
  QueryGuard child(QueryLimits{}, &parent);  // child asks for no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(child.Check().code(), StatusCode::kTimeout);
}

// ---------------------------------------------------------------------------
// Execution guardrails, serial and parallel
// ---------------------------------------------------------------------------

class GuardrailsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11;"
                                  "grant select on costudentgrades to 11;"
                                  "grant select on myregistrations to 11")
                    .ok());
    // Truman policy for the degradation path: grades filters to own rows.
    ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  }

  // A session that runs plans directly (no validity test) so execution
  // guardrails are exercised in isolation.
  static SessionContext Unchecked(QueryLimits limits) {
    SessionContext ctx("11");
    ctx.set_mode(EnforcementMode::kNone);
    ctx.set_query_limits(limits);
    return ctx;
  }

  static SessionContext NonTruman(const std::string& user) {
    SessionContext ctx(user);
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  // Grows `students` to `n` synthetic rows so parallel scans have morsels
  // to fight over (direct storage writes, like the benches).
  void GrowStudents(size_t n) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({Value::String("s" + std::to_string(i + 100)),
                      Value::String("name"), Value::String("fulltime")});
    }
    db_.state().GetMutableTable("students")->InsertRows(std::move(rows));
  }

  Database db_;
};

TEST_F(GuardrailsTest, ExpiredDeadlineFailsSerialQuery) {
  QueryLimits limits;
  limits.timeout = std::chrono::microseconds(1);
  auto r = db_.Execute("select * from students", Unchecked(limits));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(GuardrailsTest, ExpiredDeadlineFailsParallelQuery) {
  GrowStudents(20000);
  QueryLimits limits;
  limits.timeout = std::chrono::microseconds(1);
  SessionContext ctx = Unchecked(limits);
  ctx.set_exec_parallelism(4);
  auto r = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(GuardrailsTest, OneRowBudgetFailsScan) {
  QueryLimits limits;
  limits.max_rows = 1;
  auto r = db_.Execute("select * from students", Unchecked(limits));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GuardrailsTest, RowBudgetBoundsJoinFanOut) {
  // The join's output rows count against the budget too — a small scan
  // with a multiplicative join cannot dodge the work bound.
  GrowStudents(4000);
  QueryLimits limits;
  // Scans charge ~4k rows; the 4004 x 5 cross product charges ~20k.
  limits.max_rows = 10000;
  auto r = db_.Execute(
      "select s.name from students s, registered r", Unchecked(limits));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GuardrailsTest, MemoryBudgetFailsHashJoinBuild) {
  QueryLimits limits;
  limits.max_memory_bytes = 1;
  auto r = db_.Execute(
      "select g.grade from grades g, students s "
      "where g.student-id = s.student-id",
      Unchecked(limits));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GuardrailsTest, MemoryBudgetFailsSortAndDistinct) {
  QueryLimits limits;
  limits.max_memory_bytes = 1;
  auto sorted =
      db_.Execute("select name from students order by name", Unchecked(limits));
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kResourceExhausted);
  auto distinct =
      db_.Execute("select distinct type from students", Unchecked(limits));
  ASSERT_FALSE(distinct.ok());
  EXPECT_EQ(distinct.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GuardrailsTest, PreCancelledTokenFailsImmediately) {
  auto token = std::make_shared<std::atomic<bool>>(true);
  SessionContext ctx = Unchecked(QueryLimits{});
  ctx.set_cancel_token(token);
  auto r = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardrailsTest, MidExecutionCancelOfParallelPlan) {
  // A 4-thread cross join large enough to outlast the canceller by orders
  // of magnitude; the flip lands mid-execution and every morsel worker
  // must observe it, drain and join (the test would hang otherwise).
  GrowStudents(8000);
  auto token = std::make_shared<std::atomic<bool>>(false);
  SessionContext ctx = Unchecked(QueryLimits{});
  ctx.set_cancel_token(token);
  ctx.set_exec_parallelism(4);
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token->store(true);
  });
  auto r = db_.Execute("select a.name from students a, students b", ctx);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The session (and its token) are reusable for the next statement.
  token->store(false);
  auto again = db_.Execute("select name from students where student-id = '11'",
                           ctx);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

// ---------------------------------------------------------------------------
// Validity-check budgets and the Truman degradation policy
// ---------------------------------------------------------------------------

TEST_F(GuardrailsTest, ValidityTimeoutRejectsByDefault) {
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  auto r = db_.Execute("select grade from grades where student-id = '11'",
                       NonTruman("11"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(GuardrailsTest, ValidityTimeoutDegradesToTrumanWhenAsked) {
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  QueryLimits limits;
  limits.degrade_policy = DegradePolicy::kTruman;
  SessionContext ctx = NonTruman("11");
  ctx.set_query_limits(limits);
  auto r = db_.Execute("select grade from grades where student-id = '11'", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded_to_truman);
  EXPECT_NE(r.value().validity.reason.find("degraded"), std::string::npos);
  // The Truman answer equals the view slice — here the user's own grades.
  EXPECT_EQ(r.value().relation.num_rows(), 2u);
}

TEST_F(GuardrailsTest, DegradedAnswerIsFilteredNotLiteral) {
  // The whole reason the paper prefers the Non-Truman model: under Truman
  // semantics this query silently reports the average of the *visible*
  // grades. The degraded answer must carry the filtered flag so the caller
  // knows it is not the literal answer.
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  QueryLimits limits;
  limits.degrade_policy = DegradePolicy::kTruman;
  SessionContext ctx = NonTruman("11");
  ctx.set_query_limits(limits);
  auto r = db_.Execute("select avg(grade) from grades", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded_to_truman);
  // avg over user 11's own grades (4.0, 3.5), not the table's four rows.
  EXPECT_EQ(r.value().relation.rows()[0][0], Value::Double(3.75));
}

TEST_F(GuardrailsTest, ProbeBudgetExhaustionRejects) {
  // Example 4.4's conditional query needs a first batch of >= 2 C3
  // database probes before any verdict exists; a budget of 1 therefore
  // trips with no verdict in hand and must reject. (A budget tripping
  // AFTER the root is proven valid keeps the verdict — tested below by
  // LateProbeTripKeepsEarlierVerdict.)
  SessionContext ctx = NonTruman("11");
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto unlimited = db_.CheckQueryValidity(q, ctx);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_TRUE(unlimited.value().valid);
  ASSERT_GE(unlimited.value().c3_probes, 2u);

  db_.options().validity.max_total_probes = 1;
  db_.options().enable_validity_cache = false;
  auto r = db_.Execute(q, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GuardrailsTest, LateProbeTripKeepsEarlierVerdict) {
  // The scenario's verdict lands after 2 of its 4 probes; tripping the
  // budget on the later (exploratory) batches must NOT revoke an already
  // established acceptance.
  SessionContext ctx = NonTruman("11");
  const std::string q = "select * from grades where course-id = 'cs101'";
  db_.options().validity.max_total_probes = 2;
  db_.options().enable_validity_cache = false;
  auto r = db_.Execute(q, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().degraded_to_truman);
}

TEST_F(GuardrailsTest, ProbeBudgetExhaustionDegradesToTruman) {
  SessionContext ctx = NonTruman("11");
  const std::string q = "select * from grades where course-id = 'cs101'";
  db_.options().validity.max_total_probes = 1;
  db_.options().enable_validity_cache = false;
  QueryLimits limits;
  limits.degrade_policy = DegradePolicy::kTruman;
  ctx.set_query_limits(limits);
  auto r = db_.Execute(q, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded_to_truman);
  // Truman-filtered grades for cs101: only the user's own row.
  EXPECT_EQ(r.value().relation.num_rows(), 1u);
}

TEST_F(GuardrailsTest, CancellationNeverDegrades) {
  // kCancelled is a user request to stop, not a budget problem: it must
  // propagate even under DegradePolicy::kTruman.
  db_.options().enable_validity_cache = false;
  auto token = std::make_shared<std::atomic<bool>>(true);
  QueryLimits limits;
  limits.degrade_policy = DegradePolicy::kTruman;
  SessionContext ctx = NonTruman("11");
  ctx.set_query_limits(limits);
  ctx.set_cancel_token(token);
  auto r = db_.Execute("select grade from grades where student-id = '11'", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// Student 11's Non-Truman C3 query runs probes over grades. EXPLAIN and
// CheckQueryValidity run the same check as the SELECT, so they honour the
// same session guard. (max_rows is an execution budget and EXPLAIN
// executes nothing, so no row budget is asserted here.)
TEST_F(GuardrailsTest, ExplainAndCheckQueryValidityObserveCancelToken) {
  const std::string q = "select * from grades where course-id = 'cs101'";
  SessionContext ctx = NonTruman("11");
  ctx.set_cancel_token(std::make_shared<std::atomic<bool>>(true));
  for (const std::string& sql : {q, "explain " + q}) {
    auto r = db_.Execute(sql, ctx);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << sql;
  }
  auto check = db_.CheckQueryValidity(q, ctx);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardrailsTest, ExplainAndCheckQueryValidityObserveSessionDeadline) {
  db_.options().enable_validity_cache = false;
  const std::string q = "select * from grades where course-id = 'cs101'";
  QueryLimits limits;
  limits.timeout = std::chrono::microseconds(1);
  SessionContext ctx = NonTruman("11");
  ctx.set_query_limits(limits);
  for (const std::string& sql : {q, "explain " + q}) {
    auto r = db_.Execute(sql, ctx);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << sql;
  }
  auto check = db_.CheckQueryValidity(q, ctx);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.status().code(), StatusCode::kTimeout);
}

TEST_F(GuardrailsTest, DegradedVerdictIsNeverCached) {
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  QueryLimits limits;
  limits.degrade_policy = DegradePolicy::kTruman;
  SessionContext ctx = NonTruman("11");
  ctx.set_query_limits(limits);
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  // Lifting the budget must yield a real verdict, not a cached degrade.
  db_.options().validity.check_timeout = std::chrono::microseconds(0);
  ctx.clear_query_limits();
  auto r = db_.Execute(q, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().degraded_to_truman);
  EXPECT_TRUE(r.value().validity.valid);
}

// ---------------------------------------------------------------------------
// Bounded verdict cache
// ---------------------------------------------------------------------------

TEST_F(GuardrailsTest, StatementCacheEvictsAtCapacity) {
  DatabaseOptions options;
  options.statement_cache_capacity = 4;
  Database db(std::move(options));
  SetupUniversity(&db);
  CreateUniversityViews(&db);
  ASSERT_TRUE(db.ExecuteScript("grant select on mygrades to 11").ok());
  SessionContext ctx = NonTruman("11");
  // Distinct constants are distinct statements: adversarial unique-query
  // traffic cycles the cache instead of growing it without bound.
  constexpr size_t kQueries = 20;
  for (size_t i = 0; i < kQueries; ++i) {
    auto r = db.Execute("select grade from grades where student-id = '11' "
                            "and grade > " +
                            std::to_string(i),
                        ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Every shard keeps at least one entry, so a capacity of 4 holds up to
  // kShards entries; 20 statements spread over more than 4 shards.
  const core::StatementCache& cache = db.statement_cache();
  EXPECT_LE(cache.size(), core::StatementCache::kShards);
  EXPECT_GT(cache.size(), 4u);
  EXPECT_EQ(cache.size() + cache.evictions(), kQueries);
}

// ---------------------------------------------------------------------------
// Adversarial inputs
// ---------------------------------------------------------------------------

TEST_F(GuardrailsTest, DeeplyNestedExpressionIsHandled) {
  // A 400-deep parenthesized arithmetic tower: parser, binder, normalizer
  // and evaluator must all either answer or fail cleanly.
  std::string expr = "1";
  for (int i = 0; i < 400; ++i) expr = "(" + expr + " + 1)";
  auto r = db_.ExecuteAsAdmin("select " + expr);
  if (r.ok()) {
    EXPECT_EQ(r.value().relation.rows()[0][0], Value::Int(401));
  } else {
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST_F(GuardrailsTest, HugeInListIsHandled) {
  std::string in_list = "'x0'";
  for (int i = 1; i < 5000; ++i) in_list += ",'x" + std::to_string(i) + "'";
  auto r = db_.ExecuteAsAdmin(
      "select name from students where student-id in (" + in_list + ")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().relation.num_rows(), 0u);
}

TEST_F(GuardrailsTest, GuardrailSweepNeverCrashes) {
  // Every (query, limit) combination must produce an answer or one of the
  // three guard codes — nothing else, and never a hang.
  GrowStudents(3000);
  const std::string queries[] = {
      "select * from students",
      "select a.name from students a, students b",
      "select type, count(*) from students group by type",
      "select distinct name from students order by name",
  };
  QueryLimits sweeps[4];
  sweeps[0].timeout = std::chrono::microseconds(1);
  sweeps[1].max_rows = 1;
  sweeps[2].max_memory_bytes = 16;
  sweeps[3].timeout = std::chrono::milliseconds(50);  // may or may not trip
  for (const std::string& q : queries) {
    for (const QueryLimits& limits : sweeps) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SessionContext ctx = Unchecked(limits);
        ctx.set_exec_parallelism(threads);
        auto r = db_.Execute(q, ctx);
        if (!r.ok()) {
          StatusCode code = r.status().code();
          EXPECT_TRUE(code == StatusCode::kTimeout ||
                      code == StatusCode::kCancelled ||
                      code == StatusCode::kResourceExhausted)
              << q << " -> " << r.status().ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace fgac
