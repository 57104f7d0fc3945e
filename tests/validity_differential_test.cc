// Differential sweep: the goal-directed (demand-driven, dominance-pruned)
// validity search must agree with the exhaustive breadth-first reference on
// every generated query — the goal-directed mode only skips work that
// cannot change the verdict, so any divergence is a bug in its frontier,
// pruning or join-gating logic.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "core/auth_view.h"
#include "core/database.h"
#include "core/validity.h"
#include "exec/executor.h"
#include "exec/row_finder.h"
#include "sql/parser.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using core::ValidityReport;
using fgac::testing::CreateUniversityViews;
using fgac::testing::QueryGenerator;
using fgac::testing::SetupUniversity;

void SetupDatabase(Database* db, bool goal_directed, size_t parallelism) {
  SetupUniversity(db);
  CreateUniversityViews(db);
  for (const char* grant :
       {"grant select on mygrades to 11", "grant select on costudentgrades to 11",
        "grant select on myregistrations to 11",
        "grant select on regstudents to 11", "grant select on avggrades to 11"}) {
    ASSERT_TRUE(db->ExecuteAsAdmin(grant).ok()) << grant;
  }
  db->options().parallelism = parallelism;
  db->options().validity.goal_directed_search = goal_directed;
  // Every query must be derived from scratch in both engines.
  db->options().enable_validity_cache = false;
}

std::string Describe(const Result<ValidityReport>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  if (!r.value().valid) return "rejected: " + r.value().reason;
  return std::string(r.value().unconditional ? "unconditional" : "conditional") +
         " via " + r.value().justification;
}

/// Runs `num_queries` generated queries through a goal-directed and an
/// exhaustive engine over identical databases and asserts verdict equality.
void RunSweep(size_t parallelism, size_t num_queries, uint32_t seed) {
  Database goal_db;
  Database full_db;
  SetupDatabase(&goal_db, /*goal_directed=*/true, parallelism);
  SetupDatabase(&full_db, /*goal_directed=*/false, parallelism);

  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);

  QueryGenerator gen(seed);
  size_t accepted = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    const std::string q = gen.NextQuery();
    auto goal = goal_db.CheckQueryValidity(q, ctx);
    auto full = full_db.CheckQueryValidity(q, ctx);
    ASSERT_EQ(goal.ok(), full.ok())
        << "query #" << i << ": " << q << "\n  goal-directed: "
        << Describe(goal) << "\n  exhaustive:    " << Describe(full);
    if (!goal.ok()) continue;
    ASSERT_EQ(goal.value().valid, full.value().valid)
        << "query #" << i << ": " << q << "\n  goal-directed: "
        << Describe(goal) << "\n  exhaustive:    " << Describe(full);
    ASSERT_EQ(goal.value().unconditional, full.value().unconditional)
        << "query #" << i << ": " << q << "\n  goal-directed: "
        << Describe(goal) << "\n  exhaustive:    " << Describe(full);
    if (goal.value().valid) ++accepted;
  }
  // The sweep only has teeth when both outcomes occur.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, num_queries);
}

TEST(ValidityDifferentialTest, SerialProbesAgree) {
  RunSweep(/*parallelism=*/1, /*num_queries=*/500, /*seed=*/20260808);
}

TEST(ValidityDifferentialTest, PipelinedProbesAgree) {
  RunSweep(/*parallelism=*/4, /*num_queries=*/500, /*seed=*/8082026);
}

// The C3/CAgg probes of shape π*(σ*(Get)) are answered by the row finder
// (through the key index when the selections pin the key). On the sweep's
// corpus each such probe must be non-empty exactly when its LIMIT-1
// execution is. The checker reads the probes only through these answers,
// so its verdicts stay those of LIMIT-1 execution.
TEST(ValidityDifferentialTest, RowFinderProbesAgreeWithLimitOneExecution) {
  Database db;
  SetupDatabase(&db, /*goal_directed=*/true, /*parallelism=*/1);
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  auto views = core::InstantiateAvailableViews(db.catalog(), ctx);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  QueryGenerator gen(20260808);
  size_t finder_probes = 0;
  size_t nonempty_probes = 0;
  for (size_t i = 0; i < 300; ++i) {
    const std::string q = gen.NextQuery();
    auto stmt = sql::Parser::ParseSelect(q);
    if (!stmt.ok()) continue;
    auto plan = db.BindQuery(*stmt.value(), ctx);
    if (!plan.ok()) continue;
    core::ValidityChecker checker(db.catalog(), &db.state(),
                                  db.options().validity);
    core::ValidityTrace trace;
    checker.set_trace(&trace);
    (void)checker.Check(plan.value(), views.value());
    for (const core::ValidityTraceEvent& e : trace.events()) {
      for (const algebra::PlanPtr& probe : e.probe_plans) {
        std::optional<exec::TableFilter> filter = exec::AsTableFilter(probe);
        if (!filter.has_value()) continue;
        const storage::TableData* data = db.state().GetTable(filter->table);
        ASSERT_NE(data, nullptr) << filter->table;
        auto found = exec::FindRows(*data, filter->conjuncts, 1, nullptr);
        auto limited =
            exec::ExecutePlan(algebra::MakeLimit(1, probe), db.state());
        bool finder = found.ok() && !found.value().empty();
        bool executed = limited.ok() && !limited.value().empty();
        ASSERT_EQ(finder, executed)
            << "query #" << i << ": " << q << "\nprobe:\n"
            << algebra::PlanToString(probe);
        ++finder_probes;
        nonempty_probes += finder ? 1 : 0;
      }
    }
  }
  // The corpus reaches the finder with both answers.
  EXPECT_GT(nonempty_probes, 0u);
  EXPECT_LT(nonempty_probes, finder_probes);
}

TEST(ValidityDifferentialTest, LowExpansionBudgetNeverAcceptsUnsoundly) {
  // CI (Debug leg) runs this with FGAC_DIFF_LOW_BUDGET=1: under a starved
  // expansion budget the goal-directed engine may reject more, but any
  // query it accepts must also be accepted by the unstarved exhaustive
  // reference — budget pressure must never manufacture a proof.
  if (std::getenv("FGAC_DIFF_LOW_BUDGET") == nullptr) {
    GTEST_SKIP() << "set FGAC_DIFF_LOW_BUDGET=1 to run the starved sweep";
  }
  Database goal_db;
  Database full_db;
  SetupDatabase(&goal_db, /*goal_directed=*/true, /*parallelism=*/1);
  SetupDatabase(&full_db, /*goal_directed=*/false, /*parallelism=*/1);
  goal_db.options().validity.expand.max_exprs = 500;
  goal_db.options().validity.expand.max_passes = 2;

  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  QueryGenerator gen(424242);
  for (size_t i = 0; i < 300; ++i) {
    const std::string q = gen.NextQuery();
    auto goal = goal_db.CheckQueryValidity(q, ctx);
    if (!goal.ok() || !goal.value().valid) continue;
    auto full = full_db.CheckQueryValidity(q, ctx);
    ASSERT_TRUE(full.ok() && full.value().valid)
        << "starved goal-directed engine accepted query #" << i << ": " << q
        << "\n  exhaustive reference: " << Describe(full);
  }
}

}  // namespace
}  // namespace fgac
