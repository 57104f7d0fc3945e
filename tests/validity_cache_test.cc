// Validity verdicts reused for re-issued statements (paper Section 5.6
// optimizations), end to end through the statement cache: ad-hoc SELECTs
// are cached as prepared statements without parameters.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/database.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

class DatabaseCacheTest : public ::testing::Test {
 protected:
  static void Setup(Database* db) {
    SetupUniversity(db);
    CreateUniversityViews(db);
    ASSERT_TRUE(db->ExecuteAsAdmin("grant select on mygrades to 11").ok());
    ASSERT_TRUE(
        db->ExecuteAsAdmin("grant select on costudentgrades to 11").ok());
    ASSERT_TRUE(
        db->ExecuteAsAdmin("grant select on myregistrations to 11").ok());
  }

  void SetUp() override { Setup(&db_); }

  SessionContext Student() {
    SessionContext ctx("11");
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  Database db_;
};

TEST_F(DatabaseCacheTest, SecondExecutionHitsCache) {
  const std::string q = "select grade from grades where student-id = '11'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().validity_from_cache);
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, GrantRevokesCachedVerdicts) {
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, Student()).ok());
  // Any catalog change (here: a new grant) bumps the catalog version.
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on avggrades to 11").ok());
  auto r = db_.Execute(q, Student());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, DataChangeInvalidatesConditionalVerdict) {
  // Conditionally valid via C3 (registered for cs101).
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok());
  ASSERT_FALSE(r1.value().validity.unconditional);
  // DML bumps the data version; the conditional verdict must be re-derived.
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("insert into courses values ('cs303', 'os')").ok());
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, DirectStorageDeleteInvalidatesConditionalVerdict) {
  // Regression: a remainder-tuple delete that bypasses Database DML and
  // writes storage directly (bench/test seeding style) must still kill the
  // cached conditional verdict. Before the version counter moved into
  // TableData, data_version() only saw Execute()-routed DML, so the stale
  // verdict kept admitting a query whose C3 witness was gone.
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok());
  ASSERT_FALSE(r1.value().validity.unconditional);

  // Delete student 11's cs101 registration straight out of TableData.
  storage::TableData* reg = db_.state().GetMutableTable("registered");
  ASSERT_NE(reg, nullptr);
  std::vector<size_t> doomed;
  for (size_t i = 0; i < reg->num_rows(); ++i) {
    const Row row = reg->GetRow(i);
    if (row[0] == Value::String("11") && row[1] == Value::String("cs101"))
      doomed.push_back(i);
  }
  ASSERT_FALSE(doomed.empty());
  reg->EraseIndices(doomed);

  // The verdict's supporting fact is gone: the cache entry must not be
  // served, and re-derivation must now reject the query.
  auto r2 = db_.Execute(q, Student());
  if (r2.ok()) {
    EXPECT_FALSE(r2.value().validity_from_cache)
        << "stale conditional verdict served from cache";
  }
  EXPECT_FALSE(r2.ok()) << "query admitted without its C3 witness";
}

TEST_F(DatabaseCacheTest, ConditionalVerdictFlipsWithState) {
  // Student 11 not registered for ee150 -> rejected; after registering
  // (and the data version bump), the same query becomes valid.
  const std::string q = "select * from grades where course-id = 'ee150'";
  SessionContext ctx = Student();
  EXPECT_FALSE(db_.Execute(q, ctx).ok());
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("insert into registered values ('11', 'ee150')").ok());
  EXPECT_TRUE(db_.Execute(q, ctx).ok());
}

TEST_F(DatabaseCacheTest, CacheCanBeDisabled) {
  db_.options().enable_validity_cache = false;
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, Student()).ok());
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, BlownProbeBudgetVerdictIsNotCached) {
  // A verdict reached before the whole-check probe cap blew is sound to
  // act on once but must NEVER be cached: with budget the check could have
  // proved more, and the cache would keep serving the starved verdict.
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto free_run = db_.Execute(q, Student());
  ASSERT_TRUE(free_run.ok());
  ASSERT_FALSE(free_run.value().validity.unconditional);
  EXPECT_FALSE(free_run.value().validity.probe_budget_exhausted);
  const size_t probes = free_run.value().validity.c3_probes;
  ASSERT_GT(probes, 0u);

  // The engine is deterministic, so scanning budgets downward from the
  // unconstrained demand finds the boundary case: enough probes ran to
  // reach the conditional verdict, then a later batch was refused.
  bool exercised = false;
  for (size_t budget = probes; budget >= 1 && !exercised; --budget) {
    Database db;
    Setup(&db);
    db.options().validity.max_total_probes = budget;
    auto r = db.Execute(q, Student());
    if (!r.ok() || !r.value().validity.probe_budget_exhausted) continue;
    exercised = true;
    EXPECT_TRUE(r.value().validity.valid);
    EXPECT_FALSE(r.value().validity_from_cache);
    // The starved verdict must not have entered the cache: a second
    // execution re-derives from scratch.
    EXPECT_EQ(db.statement_cache().size(), 0u);
    auto again = db.Execute(q, Student());
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.value().validity_from_cache);
  }
  ASSERT_TRUE(exercised)
      << "no probe budget reached a verdict and then blew; fixture needs "
         "a query with more than one probe batch";
}

TEST_F(DatabaseCacheTest, DifferentConstantsKeySeparately) {
  // Plan fingerprints cover constants: '11' vs '12' are different entries.
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", Student())
          .ok());
  auto r = db_.Execute("select grade from grades where student-id = '12'",
                       Student());
  ASSERT_FALSE(r.ok());  // not authorized, and independently computed
  EXPECT_EQ(db_.statement_cache().size(), 2u);
}

TEST_F(DatabaseCacheTest, AdHocVerdictServesPreparedStatementOfSameText) {
  // One cache: the verdict an ad-hoc SELECT leaves behind is the entry an
  // EXECUTE of the same text without placeholders looks up.
  const std::string q = "select grade from grades where student-id = '11'";
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  auto adhoc = s->Execute(q);
  ASSERT_TRUE(adhoc.ok()) << adhoc.status().ToString();
  EXPECT_FALSE(adhoc.value().validity_from_cache);
  ASSERT_TRUE(s->Execute("prepare q as " + q).ok());
  auto executed = s->Execute("execute q");
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_TRUE(executed.value().validity_from_cache);
  EXPECT_EQ(db_.statement_cache().size(), 1u);
  cm.CloseAll();
}

TEST_F(DatabaseCacheTest, SystemTableReadKeepsConditionalVerdicts) {
  // Reading the fgac_ tables writes no shared storage, so an observer
  // moves no data version and evicts no one's conditional (C3) verdict.
  const std::string q = "select * from grades where course-id = 'cs101'";
  auto r1 = db_.Execute(q, Student());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_FALSE(r1.value().validity.unconditional);
  const uint64_t version = db_.data_version();
  fgac::testing::MustQueryAdmin(&db_,
                                "select count(*) from fgac_statement_cache");
  fgac::testing::MustQueryAdmin(&db_, "select * from fgac_audit");
  EXPECT_EQ(db_.data_version(), version);
  auto r2 = db_.Execute(q, Student());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2.value().validity_from_cache);
}

TEST_F(DatabaseCacheTest, AdHocVerdictHitCountsAsSessionCacheHit) {
  const std::string q = "select grade from grades where student-id = '11'";
  server::ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(s->Execute(q).ok());
  auto again = s->Execute(q);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again.value().validity_from_cache);
  storage::Relation rel = fgac::testing::MustQueryAdmin(
      &db_, "select cache_hits from fgac_sessions where user_name = '11'");
  ASSERT_EQ(rel.num_rows(), 1u);
  EXPECT_EQ(rel.rows()[0][0], Value::Int(1));
  cm.CloseAll();
}

// Two session parameterizations whose fingerprints collide must not share
// a cached verdict or Truman plan: the cache compares the parameters
// themselves. View va exposes the row whose `a` is the session's $a.
class SessionParamCollisionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kA1 = (int64_t{1} << 60) + 1;
  static constexpr int64_t kB1 = (int64_t{1} << 59) + 5;
  static constexpr int64_t kA2 = (int64_t{1} << 60) + 3;
  static constexpr uint64_t kBasis = 1469598103934665603ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  void SetUp() override {
    const std::string script =
        "create table t (a bigint, secret varchar);"
        "insert into t values (" +
        std::to_string(kA1) + ", 'p1'), (" + std::to_string(kA2) +
        ", 'p2');"
        "create authorization view va as select * from t where a = $a;"
        "grant select on va to u";
    ASSERT_TRUE(db_.ExecuteScript(script).ok());
  }

  /// The engine's FNV fold of one parameter into the fingerprint of the
  /// sorted parameter map.
  static uint64_t Fold(uint64_t fp, const std::string& name,
                       const Value& v) {
    fp = fp * kPrime ^ std::hash<std::string>()(name);
    return fp * kPrime ^ v.Hash();
  }

  using Params = core::SessionParams;

  /// P1 = {a: kA1, b: kB1}; P2 = {a: kA2, b: y} with y solved so that both
  /// maps fingerprint alike. An int that a double cannot hold exactly
  /// hashes as itself, so y is the hash it needs. A session's $user-id
  /// parameters sort after "b" and are the same in both.
  static std::pair<Params, Params> CollidingParams() {
    const uint64_t want =
        Fold(Fold(kBasis, "a", Value::Int(kA1)), "b", Value::Int(kB1));
    const uint64_t prefix = Fold(kBasis, "a", Value::Int(kA2));
    const uint64_t y =
        want ^ ((prefix * kPrime ^ std::hash<std::string>()("b")) * kPrime);
    const Value b2 = Value::Int(static_cast<int64_t>(y));
    EXPECT_EQ(b2.Hash(), y) << "y is not hashed as itself";
    return {{{"a", Value::Int(kA1)}, {"b", Value::Int(kB1)}},
            {{"a", Value::Int(kA2)}, {"b", b2}}};
  }

  static void Apply(const Params& params, SessionContext* ctx) {
    for (const auto& [name, value] : params) ctx->SetParam(name, value);
  }

  static SessionContext User(const Params& params, EnforcementMode mode) {
    SessionContext ctx("u");
    ctx.set_mode(mode);
    Apply(params, &ctx);
    return ctx;
  }

  Database db_;
};

TEST_F(SessionParamCollisionTest, NonTrumanVerdictIsNotSharedAcrossParams) {
  auto [params1, params2] = CollidingParams();
  SessionContext p1 = User(params1, EnforcementMode::kNonTruman);
  SessionContext p2 = User(params2, EnforcementMode::kNonTruman);
  const std::string q =
      "select secret from t where a = " + std::to_string(kA1);
  auto own = db_.Execute(q, p1);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  ASSERT_EQ(own.value().relation.num_rows(), 1u);
  // Under P2 the row with a = kA1 is hidden: the checker rejects the
  // query, and so must the cached path.
  auto check = db_.CheckQueryValidity(q, p2);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_FALSE(check.value().valid);
  auto peek = db_.Execute(q, p2);
  ASSERT_FALSE(peek.ok()) << "hidden row served from P1's cached verdict";
  EXPECT_EQ(peek.status().code(), StatusCode::kNotAuthorized);
  // The fingerprints did collide: the slot held P1's verdict.
  EXPECT_GE(db_.statement_cache().collisions(), 1u);
}

TEST_F(SessionParamCollisionTest, TrumanPlanIsNotSharedAcrossParams) {
  ASSERT_TRUE(db_.catalog().SetTrumanView("t", "va").ok());
  auto [params1, params2] = CollidingParams();
  server::ConnectionManager cm(db_);
  auto s = cm.Open("u", EnforcementMode::kTruman);
  Apply(params1, &s->context());
  ASSERT_TRUE(s->Execute("prepare q as select secret from t").ok());
  auto first = s->Execute("execute q");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first.value().relation.num_rows(), 1u);
  EXPECT_EQ(first.value().relation.rows()[0][0], Value::String("p1"));
  Apply(params2, &s->context());
  auto second = s->Execute("execute q");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().truman_plan_from_cache);
  ASSERT_EQ(second.value().relation.num_rows(), 1u);
  EXPECT_EQ(second.value().relation.rows()[0][0], Value::String("p2"))
      << "P1's row served from the cached Truman plan";
  // The ad-hoc path agrees.
  auto adhoc = db_.Execute("select secret from t",
                           User(params2, EnforcementMode::kTruman));
  ASSERT_TRUE(adhoc.ok()) << adhoc.status().ToString();
  ASSERT_EQ(adhoc.value().relation.num_rows(), 1u);
  EXPECT_EQ(adhoc.value().relation.rows()[0][0], Value::String("p2"));
  EXPECT_GE(db_.statement_cache().collisions(), 1u);
  cm.CloseAll();
}

}  // namespace
}  // namespace fgac
