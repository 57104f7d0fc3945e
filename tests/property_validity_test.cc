// The soundness property behind conditional validity (Definition 4.3): if a
// query is declared valid in state D, its result must be identical in every
// database state PA-equivalent to D (same instantiated-view outputs, same
// integrity constraints). Violations would be exactly the information leak
// of Example 4.3. We test this by random mutation: perturb tuples, keep
// only perturbations invisible to every authorization view (and legal under
// the constraints), and check the accepted query's answer is unchanged.

#include <gtest/gtest.h>

#include "algebra/binder.h"
#include "algebra/reference_eval.h"
#include "core/auth_view.h"
#include "core/database.h"
#include "sql/parser.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::SessionContext;
using fgac::testing::QueryGenerator;

struct Scenario {
  const char* name;
  std::vector<const char*> grants;
  const char* extra_ddl;  // may be nullptr
};

const Scenario kScenarios[] = {
    {"own_grades", {"mygrades"}, nullptr},
    {"aggregates", {"mygrades", "avggrades"}, nullptr},
    {"co_students", {"costudentgrades", "myregistrations"}, nullptr},
    {"threshold_agg", {"lcavggrades", "myregistrations"}, nullptr},
    {"u3_constraint",
     {"regstudents", "mygrades"},
     "insert into registered values ('14', 'ee150');"
     "create inclusion dependency esr on students (student-id) "
     "references registered (student-id)"},
};

class PaEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, int>> {
 protected:
  void SetUp() override {
    fgac::testing::SetupUniversity(&db_);
    fgac::testing::CreateUniversityViews(&db_);
    const Scenario& scenario = kScenarios[std::get<1>(GetParam())];
    if (scenario.extra_ddl != nullptr) {
      ASSERT_TRUE(db_.ExecuteScript(scenario.extra_ddl).ok());
    }
    for (const char* view : scenario.grants) {
      ASSERT_TRUE(
          db_.ExecuteAsAdmin(std::string("grant select on ") + view + " to 11")
              .ok());
    }
  }

  /// Applies one random mutation to the live state. Returns false if the
  /// mutation could not be applied.
  bool Mutate(std::mt19937* rng) {
    static const char* kTables[] = {"students", "courses", "registered",
                                    "grades"};
    const char* table = kTables[(*rng)() % 4];
    storage::TableData* data = db_.state().GetMutableTable(table);
    if (data == nullptr) return false;
    int op = static_cast<int>((*rng)() % 3);
    auto rand_of = [&](std::initializer_list<const char*> pool) {
      auto it = pool.begin();
      std::advance(it, (*rng)() % pool.size());
      return Value::String(*it);
    };
    if (op == 0 && data->num_rows() > 0) {  // delete
      data->EraseIndices({(*rng)() % data->num_rows()});
      return true;
    }
    if (op == 1) {  // insert
      Row row;
      std::string t(table);
      if (t == "students") {
        row = {Value::String("s" + std::to_string((*rng)() % 1000)),
               rand_of({"zoe", "yan", "xu"}), rand_of({"fulltime", "parttime"})};
      } else if (t == "courses") {
        row = {Value::String("c" + std::to_string((*rng)() % 1000)),
               rand_of({"topics", "seminar"})};
      } else if (t == "registered") {
        row = {rand_of({"11", "12", "13", "14"}),
               rand_of({"cs101", "cs202", "ee150"})};
      } else {
        row = {rand_of({"11", "12", "13", "14"}),
               rand_of({"cs101", "cs202", "ee150"}),
               Value::Double(1.0 + static_cast<double>((*rng)() % 7) * 0.5)};
      }
      data->Insert(std::move(row));
      return true;
    }
    if (data->num_rows() == 0) return false;
    // update one cell (read-modify-write through the versioned API)
    size_t r = (*rng)() % data->num_rows();
    Row row = data->GetRow(r);
    size_t c = (*rng)() % row.size();
    if (row[c].is_double()) {
      row[c] = Value::Double(1.0 + static_cast<double>((*rng)() % 7) * 0.5);
    } else {
      row[c] = Value::String("m" + std::to_string((*rng)() % 100));
    }
    data->UpdateRow(r, std::move(row));
    return true;
  }

  Database db_;
};

TEST_P(PaEquivalenceTest, AcceptedQueriesAreInvariantAcrossPaStates) {
  uint32_t seed = std::get<0>(GetParam());
  SessionContext ctx("11");
  ctx.set_mode(core::EnforcementMode::kNonTruman);

  // Instantiate the user's views once (plans are state-independent).
  auto views = core::InstantiateAvailableViews(db_.catalog(), ctx);
  ASSERT_TRUE(views.ok()) << views.status().ToString();

  auto eval_views = [&](const storage::DatabaseState& state)
      -> std::vector<storage::Relation> {
    std::vector<storage::Relation> out;
    for (const core::InstantiatedView& v : views.value()) {
      if (v.is_access_pattern()) continue;  // no finite output to compare
      auto rel = algebra::ReferenceEval(v.plan, state);
      EXPECT_TRUE(rel.ok()) << rel.status().ToString();
      out.push_back(rel.ok() ? rel.value() : storage::Relation());
    }
    return out;
  };

  QueryGenerator gen(seed);
  std::mt19937 rng(seed * 7919 + 13);
  int accepted_queries = 0;
  int checked_mutations = 0;

  for (int qi = 0; qi < 25; ++qi) {
    std::string sql = gen.NextQuery();
    auto verdict = db_.CheckQueryValidity(sql, ctx);
    if (!verdict.ok() || !verdict.value().valid) continue;

    auto stmt = sql::Parser::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    auto plan = db_.BindQuery(*stmt.value(), ctx);
    ASSERT_TRUE(plan.ok());
    auto baseline = algebra::ReferenceEval(plan.value(), db_.state());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    std::vector<storage::Relation> view_baseline = eval_views(db_.state());
    ++accepted_queries;

    for (int mi = 0; mi < 30; ++mi) {
      storage::DatabaseState saved = db_.state().Clone();
      int steps = 1 + static_cast<int>(rng() % 3);
      bool applied = false;
      for (int s = 0; s < steps; ++s) applied = Mutate(&rng) || applied;
      bool pa_equivalent = applied && db_.VerifyConstraints().ok();
      if (pa_equivalent) {
        std::vector<storage::Relation> mutated_views = eval_views(db_.state());
        for (size_t v = 0; v < mutated_views.size() && pa_equivalent; ++v) {
          pa_equivalent = mutated_views[v].MultisetEquals(view_baseline[v]);
        }
      }
      if (pa_equivalent) {
        auto mutated = algebra::ReferenceEval(plan.value(), db_.state());
        ASSERT_TRUE(mutated.ok());
        EXPECT_TRUE(mutated.value().MultisetEquals(baseline.value()))
            << "INFORMATION LEAK: accepted query changed across a "
               "PA-equivalent state\nscenario: "
            << kScenarios[std::get<1>(GetParam())].name << "\nsql: " << sql
            << "\njustification: " << verdict.value().justification;
        ++checked_mutations;
      }
      db_.state() = std::move(saved);
    }
  }
  // The harness must actually exercise the property.
  RecordProperty("accepted_queries", accepted_queries);
  RecordProperty("checked_mutations", checked_mutations);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaEquivalenceTest,
    ::testing::Combine(::testing::Range(1u, 7u),
                       ::testing::Range(0, static_cast<int>(std::size(
                                               kScenarios)))));

// Deterministic leak regressions: scenarios the paper calls out explicitly.
TEST(PaEquivalenceRegressionTest, Example43RejectionIsNecessary) {
  // With only Co-studentGrades and NO registration visibility, accepting
  // "select * from grades where course-id = 'ee150'" would leak: there are
  // PA-equivalent states (registered vs not registered for the ungraded
  // ee150) in which the would-be q' differs. Demonstrate the two states.
  Database db;
  fgac::testing::SetupUniversity(&db);
  fgac::testing::CreateUniversityViews(&db);
  ASSERT_TRUE(db.ExecuteAsAdmin("grant select on costudentgrades to 12").ok());
  SessionContext ctx("12");
  ctx.set_mode(core::EnforcementMode::kNonTruman);

  // Rejected, as required.
  auto verdict =
      db.CheckQueryValidity("select * from grades where course-id = 'ee150'", ctx);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value().valid);

  // The two PA-equivalent states: student 12 registered for ee150 (actual)
  // vs not registered. ee150 has no grades, so the instantiated view's
  // output is identical in both; but had the engine accepted the query,
  // an intelligent user could distinguish them via acceptance itself.
  auto view = core::InstantiateView(
      db.catalog(), *db.catalog().GetView("costudentgrades"), ctx);
  ASSERT_TRUE(view.ok());
  auto out1 = algebra::ReferenceEval(view.value().plan, db.state());
  ASSERT_TRUE(out1.ok());
  storage::DatabaseState alt = db.state().Clone();
  // Remove 12's ee150 registration in the alternative state.
  storage::TableData* reg = alt.GetMutableTable("registered");
  std::vector<Row> kept;
  for (size_t i = 0; i < reg->num_rows(); ++i) {
    Row r = reg->GetRow(i);
    if (!(r[0] == Value::String("12") && r[1] == Value::String("ee150"))) {
      kept.push_back(std::move(r));
    }
  }
  ASSERT_LT(kept.size(), reg->num_rows());
  reg->ReplaceAllRows(kept);
  auto out2 = algebra::ReferenceEval(view.value().plan, alt);
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(out1.value().MultisetEquals(out2.value()))
      << "the two states must be PA-equivalent for the paper's argument";
}

}  // namespace
}  // namespace fgac
