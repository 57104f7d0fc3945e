// Direct tests of the ValidityChecker API: option toggles, diagnostics,
// constraint visibility, pruning behaviour, and engine lifecycle.

#include "core/validity.h"

#include <gtest/gtest.h>

#include "algebra/binder.h"
#include "core/auth_view.h"
#include "core/view_pruning.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::InstantiatedView;
using core::SessionContext;
using core::ValidityChecker;
using core::ValidityOptions;
using core::ValidityReport;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

class ValidityEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ctx_ = SessionContext("11");
  }

  algebra::PlanPtr Bind(const std::string& sql) {
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto plan = db_.BindQuery(*stmt.value(), ctx_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan.value() : nullptr;
  }

  std::vector<InstantiatedView> Views(std::initializer_list<const char*> names) {
    std::vector<InstantiatedView> out;
    for (const char* name : names) {
      auto view = core::InstantiateView(db_.catalog(),
                                        *db_.catalog().GetView(name), ctx_);
      EXPECT_TRUE(view.ok()) << view.status().ToString();
      if (view.ok()) out.push_back(std::move(view).value());
    }
    return out;
  }

  ValidityReport Check(const std::string& sql,
                       std::initializer_list<const char*> views,
                       ValidityOptions options = {}) {
    ValidityChecker checker(db_.catalog(), &db_.state(), options);
    auto report = checker.Check(Bind(sql), Views(views));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report.value() : ValidityReport{};
  }

  Database db_;
  SessionContext ctx_{"11"};
};

TEST_F(ValidityEngineTest, CheckerIsSingleUse) {
  ValidityChecker checker(db_.catalog(), &db_.state(), {});
  auto views = Views({"mygrades"});
  ASSERT_TRUE(checker.Check(Bind("select * from grades"), views).ok());
  auto second = checker.Check(Bind("select * from grades"), views);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ValidityEngineTest, ReportDiagnosticsPopulated) {
  ValidityReport report =
      Check("select grade from grades where student-id = '11'", {"mygrades"});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.unconditional);
  EXPECT_GT(report.memo_groups, 0u);
  EXPECT_GT(report.memo_exprs, 0u);
  EXPECT_EQ(report.views_considered, 1u);
  EXPECT_FALSE(report.justification.empty());
}

TEST_F(ValidityEngineTest, RejectionReportsReason) {
  ValidityReport report = Check("select * from grades", {"mygrades"});
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.reason.find("authorization view"), std::string::npos);
}

TEST_F(ValidityEngineTest, NoViewsMeansOnlyConstantsValid) {
  ValidityReport report = Check("select * from grades", {});
  EXPECT_FALSE(report.valid);
  // A pure constant query carries no information and is always valid.
  ValidityReport constant = Check("select 1 + 1", {});
  EXPECT_TRUE(constant.valid);
  EXPECT_TRUE(constant.unconditional);
}

TEST_F(ValidityEngineTest, ConditionalRulesNeedDatabaseState) {
  // Without a state, C3 cannot probe: the Example 4.4 query is rejected.
  ValidityChecker checker(db_.catalog(), /*state=*/nullptr, {});
  auto report = checker.Check(Bind("select * from grades "
                                   "where course-id = 'cs101'"),
                              Views({"costudentgrades", "myregistrations"}));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().valid);
}

TEST_F(ValidityEngineTest, ConditionalRulesCanBeDisabled) {
  ValidityOptions options;
  options.enable_conditional_rules = false;
  ValidityReport report = Check("select * from grades where course-id = 'cs101'",
                                {"costudentgrades", "myregistrations"}, options);
  EXPECT_FALSE(report.valid);
}

TEST_F(ValidityEngineTest, C3ProbesAreCounted) {
  ValidityReport report = Check("select * from grades where course-id = 'cs101'",
                                {"costudentgrades", "myregistrations"});
  EXPECT_TRUE(report.valid);
  EXPECT_GT(report.c3_probes, 0u);
}

TEST_F(ValidityEngineTest, AccessPatternsCanBeDisabled) {
  ValidityOptions options;
  options.enable_access_patterns = false;
  ValidityReport report = Check("select * from grades where student-id = '12'",
                                {"singlegrade"}, options);
  EXPECT_FALSE(report.valid);
  ValidityReport enabled =
      Check("select * from grades where student-id = '12'", {"singlegrade"});
  EXPECT_TRUE(enabled.valid);
}

TEST_F(ValidityEngineTest, InvisibleConstraintDoesNotTestify) {
  // Section 4.2: integrity constraints the user may not know must not be
  // used, lest acceptance leak their existence.
  ASSERT_TRUE(db_.ExecuteScript("insert into registered values ('14', 'ee150');"
                                "create inclusion dependency esr "
                                "on students (student-id) "
                                "references registered (student-id)")
                  .ok());
  const std::string q = "select distinct name, type from students";
  ValidityReport visible = Check(q, {"regstudents"});
  EXPECT_TRUE(visible.valid);

  // Hide the constraint and re-check: U3a must not fire.
  for (auto& dep :
       const_cast<std::vector<catalog::InclusionDependency>&>(
           db_.catalog().constraints())) {
    if (dep.name == "esr") dep.visible_to_users = false;
  }
  ValidityReport hidden = Check(q, {"regstudents"});
  EXPECT_FALSE(hidden.valid);
}

TEST_F(ValidityEngineTest, PruningFollowsConstraintsBackward) {
  // Regression: the reachability closure used to follow inclusion
  // dependencies only src→dst. With emp.id ⊆ dept.id declared, a view over
  // emp can testify for a query over dept (U3 joins dept back against emp
  // through the dependency), so pruning the emp view loses sound proofs.
  ASSERT_TRUE(db_.ExecuteScript(
                     "create table emp (id int not null primary key);"
                     "create table dept (id int not null primary key);"
                     "create inclusion dependency emp_dept on emp (id) "
                     "references dept (id);"
                     "create authorization view myemp as select * from emp")
                  .ok());
  auto views = Views({"myemp"});
  auto kept = core::PruneViews(views, Bind("select * from dept"),
                               /*complex_rules_enabled=*/true, &db_.catalog());
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0]->name, "myemp");
}

TEST_F(ValidityEngineTest, ReportCountsCreatedNotLiveMemoSize) {
  // chain3 fixture: bt0 ⋈ bt1 ⋈ bt2 provable from a pairwise view plus a
  // whole-table view. Expansion merges many groups, so the created counts
  // (the work the search performed) must exceed the post-pruning live memo
  // size — and the report must pin the created counts, not the live ones.
  ASSERT_TRUE(db_.ExecuteScript(
                     "create table bt0 (k int not null primary key, v int);"
                     "create table bt1 (k int not null primary key, v int);"
                     "create table bt2 (k int not null primary key, v int);"
                     "create authorization view pair01 as "
                     "select * from bt0, bt1 where bt0.k = bt1.k;"
                     "create authorization view all2 as select * from bt2")
                  .ok());
  // Exhaustive mode: full saturation guarantees unification actually
  // merges groups, so created and live counts must diverge.
  ValidityOptions options;
  options.goal_directed_search = false;
  ValidityChecker checker(db_.catalog(), &db_.state(), options);
  auto report = checker.Check(Bind("select * from bt0, bt1, bt2 "
                                   "where bt0.k = bt1.k and bt1.k = bt2.k"),
                              Views({"pair01", "all2"}));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().valid);
  const optimizer::Memo& memo = checker.memo_for_testing();
  EXPECT_EQ(report.value().memo_groups, memo.num_groups());
  EXPECT_EQ(report.value().memo_exprs, memo.num_exprs());
  // The pin has teeth only if unification actually killed something.
  EXPECT_GT(memo.num_exprs(), memo.num_live_exprs());
}

TEST_F(ValidityEngineTest, GoalDirectedStopsWithZeroExpansionOnVerbatimView) {
  // The query IS an authorization view: hash-cons unification alone proves
  // the root, so the goal-directed search must not expand at all.
  ValidityReport report =
      Check("select * from grades where student-id = '11'", {"mygrades"});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.unconditional);
  EXPECT_EQ(report.expansion_passes, 0u);
}

TEST_F(ValidityEngineTest, GoalDirectedFastRejectsUnprovableQuery) {
  // No view is marked anywhere, so no inference rule can ever produce a
  // mark: the goal-directed search rejects without expanding.
  ValidityReport report = Check("select * from grades", {});
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.expansion_passes, 0u);

  // The exhaustive reference still expands (and still rejects).
  ValidityOptions exhaustive;
  exhaustive.goal_directed_search = false;
  ValidityReport full = Check("select * from grades", {}, exhaustive);
  EXPECT_FALSE(full.valid);
  EXPECT_GT(full.expansion_passes, 0u);
}

TEST_F(ValidityEngineTest, PruningKeepsConstraintConnectedViews) {
  // A registration view matters for a grades query when a grades view
  // joins registered (closure through views).
  auto views = Views({"costudentgrades", "myregistrations", "avggrades"});
  auto kept = core::PruneViews(views, Bind("select * from grades "
                                           "where course-id = 'cs101'"),
                               /*complex_rules_enabled=*/true, &db_.catalog());
  EXPECT_EQ(kept.size(), 3u);
}

TEST_F(ValidityEngineTest, PruningDropsDisconnectedViews) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "create table audit (id int not null primary key);"
                     "create authorization view auditview as "
                     "select * from audit")
                  .ok());
  auto views = Views({"mygrades", "auditview"});
  auto kept =
      core::PruneViews(views, Bind("select * from grades"),
                       /*complex_rules_enabled=*/true, &db_.catalog());
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0]->name, "mygrades");
}

TEST_F(ValidityEngineTest, BasicModePruningRequiresSubset) {
  auto views = Views({"mygrades", "costudentgrades"});
  // Query over grades only: in basic mode costudentgrades (grades ⋈
  // registered) cannot unify with any subexpression, so it is pruned.
  auto kept = core::PruneViews(views, Bind("select * from grades"),
                               /*complex_rules_enabled=*/false, &db_.catalog());
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0]->name, "mygrades");
}

TEST_F(ValidityEngineTest, PruningCanBeDisabled) {
  ValidityOptions options;
  options.prune_views = false;
  ValidityReport report =
      Check("select grade from grades where student-id = '11'",
            {"mygrades", "myregistrations"}, options);
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.views_pruned, 0u);
}

TEST_F(ValidityEngineTest, ExpansionBudgetBoundsWork) {
  ValidityOptions options;
  options.expand.max_exprs = 40;  // absurdly tight
  // Soundness is preserved under any budget: the simple U1 case still
  // passes (views inserted and marked regardless of expansion).
  ValidityReport report =
      Check("select * from grades where student-id = '11'", {"mygrades"},
            options);
  EXPECT_TRUE(report.valid);
}

TEST_F(ValidityEngineTest, OrderByAndLimitCompose) {
  // U2: sort/limit over a valid query is valid (information-monotone ops).
  ValidityReport report =
      Check("select grade from grades where student-id = '11' "
            "order by grade desc limit 1",
            {"mygrades"});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.unconditional);
}

TEST_F(ValidityEngineTest, InstantiationFailsOnMissingParameter) {
  // A view using $time cannot instantiate without the session parameter.
  ASSERT_TRUE(db_.ExecuteScript("create authorization view timed as "
                                "select * from grades where grade = $clock")
                  .ok());
  auto view = core::InstantiateView(db_.catalog(),
                                    *db_.catalog().GetView("timed"), ctx_);
  ASSERT_FALSE(view.ok());
  SessionContext with_param("11");
  with_param.SetParam("clock", Value::Double(4.0));
  EXPECT_TRUE(core::InstantiateView(db_.catalog(),
                                    *db_.catalog().GetView("timed"), with_param)
                  .ok());
}

TEST_F(ValidityEngineTest, MultipleViewsJointlyTestify) {
  // Neither view alone suffices; together they do (U2 over a join).
  ASSERT_TRUE(db_.ExecuteScript(
                     "create authorization view just_students as "
                     "select * from students;"
                     "create authorization view just_courses as "
                     "select * from courses")
                  .ok());
  EXPECT_FALSE(
      Check("select students.name, courses.name from students, courses",
            {"just_students"})
          .valid);
  EXPECT_TRUE(
      Check("select students.name, courses.name from students, courses",
            {"just_students", "just_courses"})
          .valid);
}

// ROADMAP item 3's target for fresh C3 checks: the probes of a co-student
// query pin registered's whole key, so the row finder answers each from
// the key index and the probes' guards are charged the same rows whatever
// the table's size.
uint64_t ProbeGuardRows(int students) {
  Database db;
  fgac::testing::CreateUniversitySchema(&db);
  CreateUniversityViews(&db);
  constexpr int kCourses = 40;
  storage::TableData* st = db.state().GetMutableTable("students");
  storage::TableData* co = db.state().GetMutableTable("courses");
  storage::TableData* reg = db.state().GetMutableTable("registered");
  storage::TableData* gr = db.state().GetMutableTable("grades");
  for (int c = 0; c < kCourses; ++c) {
    co->Insert({Value::String("c" + std::to_string(c)), Value::String("x")});
  }
  for (int s = 0; s < students; ++s) {
    Value sid = Value::String("s" + std::to_string(s));
    st->Insert({sid, Value::String("n"), Value::String("fulltime")});
    for (int r = 0; r < 4; ++r) {
      Value cid = Value::String("c" + std::to_string((s + 7 * r) % kCourses));
      reg->Insert({sid, cid});
      gr->Insert({sid, cid, Value::Double(3.0)});
    }
  }
  for (const char* view : {"costudentgrades", "myregistrations"}) {
    EXPECT_TRUE(db.ExecuteAsAdmin(std::string("grant select on ") + view +
                                  " to s3")
                    .ok());
  }
  db.options().enable_validity_cache = false;
  SessionContext ctx("s3");  // registered in c3, c10, c17 and c24
  ctx.set_mode(core::EnforcementMode::kNonTruman);
  ctx.set_profile(true);
  auto r = db.Execute("select * from grades where course-id = 'c3'", ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r.value().trace == nullptr) return 0;
  EXPECT_TRUE(r.value().validity.valid);
  EXPECT_FALSE(r.value().validity.unconditional);
  uint64_t rows = 0;
  for (const core::ValidityTraceEvent& e : r.value().trace->events()) {
    if (e.kind == core::ValidityTraceEvent::Kind::kProbeBatch) {
      EXPECT_EQ(e.probe_rows, e.probes);  // every probe found its row
      rows += e.guard_rows;
    }
  }
  return rows;
}

TEST(FreshC3CheckTest, ProbeRowChargeDoesNotGrowWithTheTable) {
  uint64_t small = ProbeGuardRows(200);
  uint64_t large = ProbeGuardRows(8000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace fgac
