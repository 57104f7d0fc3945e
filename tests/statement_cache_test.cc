// StatementCache unit coverage (sharding, LRU, fail-closed invalidation,
// fingerprint-collision tiebreaks) plus the end-to-end policy-epoch
// regression tests: a cached verdict or rewrite must never outlive a
// change to the policy state it was computed under.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "core/database.h"
#include "core/session_context.h"
#include "core/statement_cache.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using core::StatementCache;
using core::ValidityReport;
using server::ConnectionManager;
using testing::CreateUniversityViews;
using testing::SetupUniversity;
using testing::SortedRowsToString;

ValidityReport Accepted(bool unconditional) {
  ValidityReport r;
  r.valid = true;
  r.unconditional = unconditional;
  return r;
}

algebra::PlanPtr TrivialPlan() { return algebra::MakeGet("t", {"a"}); }

const auto kNoParams = std::make_shared<const core::SessionParams>();

TEST(StatementCacheTest, TrumanPlanHitAfterInsert) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, kNoParams};
  EXPECT_EQ(cache.LookupTrumanPlan(key, 1), nullptr);
  cache.InsertTrumanPlan(key, 1, TrivialPlan());
  EXPECT_NE(cache.LookupTrumanPlan(key, 1), nullptr);
  // A different session-parameter fingerprint is a different rewrite.
  EXPECT_EQ(cache.LookupTrumanPlan(key, 2), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(StatementCacheTest, KeyedByPrincipal) {
  StatementCache cache;
  std::string alice = "alice", bob = "bob", text = "select a from t";
  StatementCache::Key ka{alice, 7, text, 1, kNoParams};
  StatementCache::Key kb{bob, 7, text, 1, kNoParams};
  cache.InsertTrumanPlan(ka, 1, TrivialPlan());
  EXPECT_EQ(cache.LookupTrumanPlan(kb, 1), nullptr);
  EXPECT_NE(cache.LookupTrumanPlan(ka, 1), nullptr);
}

TEST(StatementCacheTest, PolicyEpochFailsClosed) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, kNoParams};
  cache.InsertTrumanPlan(key, 1, TrivialPlan());
  cache.InsertVerdict(key, 9, 1, Accepted(true));
  // The catalog moved: the whole entry (plans AND verdicts) is discarded.
  StatementCache::Key newer{user, 7, text, 2, kNoParams};
  ValidityReport out;
  EXPECT_FALSE(cache.LookupVerdict(newer, 9, 1, &out));
  EXPECT_EQ(cache.LookupTrumanPlan(key, 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.invalidations(), 1u);
}

TEST(StatementCacheTest, TextMismatchIsAMissNeverAWrongReuse) {
  StatementCache cache;
  // Same (user, stmt_fp) — a forced fingerprint collision between two
  // distinct statements. The stored text disagrees, so the second
  // statement must miss rather than inherit the first one's plans.
  std::string user = "u";
  std::string text1 = "select a from t", text2 = "select b from t";
  StatementCache::Key k1{user, 7, text1, 1, kNoParams};
  StatementCache::Key k2{user, 7, text2, 1, kNoParams};
  cache.InsertTrumanPlan(k1, 1, TrivialPlan());
  EXPECT_EQ(cache.LookupTrumanPlan(k2, 1), nullptr);
  EXPECT_GE(cache.collisions(), 1u);
  // Inserting under the colliding key restarts the entry for the new text.
  cache.InsertTrumanPlan(k2, 1, TrivialPlan());
  EXPECT_NE(cache.LookupTrumanPlan(k2, 1), nullptr);
  EXPECT_EQ(cache.LookupTrumanPlan(k1, 1), nullptr);
}

TEST(StatementCacheTest, PrincipalMismatchIsAMissNeverAWrongReuse) {
  // Bob's fingerprint is chosen so that (bob, fp_b) lands on the entry key
  // of (alice, 7), mirroring the cache's FNV mix of principal and
  // fingerprint. Same text, so only the stored principal tells them apart.
  StatementCache cache;
  std::string alice = "alice", bob = "bob", text = "select a from t";
  const uint64_t prime = 1099511628211ULL;
  const uint64_t fp_b = 7 ^ (std::hash<std::string>()(alice) * prime) ^
                        (std::hash<std::string>()(bob) * prime);
  StatementCache::Key ka{alice, 7, text, 1, kNoParams};
  StatementCache::Key kb{bob, fp_b, text, 1, kNoParams};
  cache.InsertTrumanPlan(ka, 1, TrivialPlan());
  cache.InsertVerdict(ka, 1, 1, Accepted(true));
  ValidityReport out;
  EXPECT_EQ(cache.LookupTrumanPlan(kb, 1), nullptr);
  EXPECT_FALSE(cache.LookupVerdict(kb, 1, 1, &out));
  EXPECT_GE(cache.collisions(), 2u);
  // Bob's insert takes the entry over rather than adding one: the keys
  // really collided.
  cache.InsertVerdict(kb, 1, 1, Accepted(true));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.LookupVerdict(ka, 1, 1, &out));
}

TEST(StatementCacheTest, VerdictDataVersionRule) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, kNoParams};
  cache.InsertVerdict(key, 1, /*data_version=*/5, Accepted(true));
  cache.InsertVerdict(key, 2, /*data_version=*/5, Accepted(false));
  ValidityReport rejected;
  rejected.valid = false;
  cache.InsertVerdict(key, 3, /*data_version=*/5, rejected);
  ValidityReport out;
  // Data moved to version 6: only the unconditional acceptance survives.
  EXPECT_TRUE(cache.LookupVerdict(key, 1, 6, &out));
  EXPECT_FALSE(cache.LookupVerdict(key, 2, 6, &out));
  EXPECT_FALSE(cache.LookupVerdict(key, 3, 6, &out));
}

TEST(StatementCacheTest, ProbeBudgetExhaustedVerdictsAreNotCached) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  StatementCache::Key key{user, 7, text, 1, kNoParams};
  ValidityReport budget = Accepted(true);
  budget.probe_budget_exhausted = true;
  cache.InsertVerdict(key, 1, 1, budget);
  ValidityReport out;
  EXPECT_FALSE(cache.LookupVerdict(key, 1, 1, &out));
}

TEST(StatementCacheTest, LruEvictionBoundsEntries) {
  // One shard's worth of capacity. Keys land in different shards, so size
  // can exceed max/kShards transiently — but never the configured total.
  StatementCache cache(/*max_entries=*/StatementCache::kShards);
  std::string user = "u", text = "q";
  for (uint64_t fp = 0; fp < 4 * StatementCache::kShards; ++fp) {
    StatementCache::Key key{user, fp, text, 1, kNoParams};
    cache.InsertTrumanPlan(key, 1, TrivialPlan());
  }
  EXPECT_LE(cache.size(), StatementCache::kShards);
  EXPECT_GE(cache.evictions(), 1u);
}

TEST(StatementCacheTest, RecentlyUsedEntrySurvivesEviction) {
  // Two entries per shard. Fingerprints kShards apart share their low bits,
  // so all three keys land in one shard.
  StatementCache cache(/*max_entries=*/2 * StatementCache::kShards);
  std::string user = "u", text = "q";
  auto key = [&](uint64_t fp) {
    return StatementCache::Key{user, fp, text, 1, kNoParams};
  };
  const uint64_t a = 1, b = a + StatementCache::kShards,
                 c = b + StatementCache::kShards;
  cache.InsertVerdict(key(a), 1, 1, Accepted(true));
  cache.InsertVerdict(key(b), 1, 1, Accepted(true));
  // Touch `a` so `b` becomes the LRU victim.
  EXPECT_TRUE(cache.LookupVerdict(key(a), 1, 1, nullptr));
  cache.InsertVerdict(key(c), 1, 1, Accepted(true));
  EXPECT_TRUE(cache.LookupVerdict(key(a), 1, 1, nullptr));
  EXPECT_FALSE(cache.LookupVerdict(key(b), 1, 1, nullptr));
  EXPECT_TRUE(cache.LookupVerdict(key(c), 1, 1, nullptr));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(StatementCacheTest, VerdictArgumentsAreComparedExactly) {
  StatementCache cache;
  std::string user = "u", text = "select a from t where a = $1";
  StatementCache::Key key{user, 7, text, 1, kNoParams};
  cache.InsertVerdict(key, 9, 1, Accepted(true), {Value::Int(4)});
  ValidityReport out;
  EXPECT_TRUE(cache.LookupVerdict(key, 9, 1, &out, {Value::Int(4)}));
  // Same argument fingerprint, other values (or kind): a miss.
  EXPECT_FALSE(cache.LookupVerdict(key, 9, 1, &out, {Value::Int(5)}));
  EXPECT_FALSE(cache.LookupVerdict(key, 9, 1, &out, {Value::Double(4.0)}));
  EXPECT_FALSE(cache.LookupVerdict(key, 9, 1, &out, {}));
  EXPECT_GE(cache.collisions(), 3u);
}

TEST(StatementCacheTest, SessionParamsAreComparedExactly) {
  StatementCache cache;
  std::string user = "u", text = "select a from t";
  using core::SessionParams;
  const auto p1 = std::make_shared<const SessionParams>(
      SessionParams{{"a", Value::Int(4)}});
  const auto p2 = std::make_shared<const SessionParams>(
      SessionParams{{"a", Value::Double(4.0)}});
  StatementCache::Key k1{user, 7, text, 1, p1};
  StatementCache::Key k2{user, 7, text, 1, p2};
  cache.InsertTrumanPlan(k1, 9, TrivialPlan());
  cache.InsertVerdict(k1, 9, 1, Accepted(true));
  ValidityReport out;
  EXPECT_NE(cache.LookupTrumanPlan(k1, 9), nullptr);
  EXPECT_TRUE(cache.LookupVerdict(k1, 9, 1, &out));
  // Same slot, other parameter values (here only the kind): a miss.
  EXPECT_EQ(cache.LookupTrumanPlan(k2, 9), nullptr);
  EXPECT_FALSE(cache.LookupVerdict(k2, 9, 1, &out));
  EXPECT_EQ(cache.collisions(), 2u);
}

TEST(StatementCacheTest, VariantMapsAreBounded) {
  StatementCache cache;
  std::string user = "u", text = "q";
  StatementCache::Key key{user, 7, text, 1, kNoParams};
  for (uint64_t fp = 0; fp < 4 * StatementCache::kMaxVariants; ++fp) {
    cache.InsertVerdict(key, fp, 1, Accepted(true));
    cache.InsertTrumanPlan(key, fp, TrivialPlan());
  }
  EXPECT_EQ(cache.size(), 1u);  // still one entry, variants bounded inside
}

// --- End-to-end policy-epoch regression tests -----------------------------

class PolicyEpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11").ok());
  }
  Database db_;
};

// The ISSUE's regression scenario: a Non-Truman verdict cached for a
// prepared statement must be re-checked — and the query rejected — after
// the principal's authorization is narrowed. A stale "valid" here would be
// an authorization bypass.
TEST_F(PolicyEpochTest, CachedVerdictDiesWhenAuthorizationNarrows) {
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kNonTruman);
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where student-id = $user-id "
                         "and course-id = $1")
                  .ok());
  auto first = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().validity_from_cache);  // the verdict IS cached

  // Narrow the principal's authorization: revoke the only view that made
  // the query answerable.
  ASSERT_TRUE(db_.ExecuteAsAdmin("revoke select on mygrades from 11").ok());

  // The cached verdict must not be honored: the epoch moved, the check
  // re-runs, and the query is now rejected.
  auto after = s->Execute("execute q ('cs101')");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotAuthorized);

  // Re-granting restores access (and proves the rejection wasn't sticky).
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  auto restored = s->Execute("execute q ('cs101')");
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
}

// Same property for the Truman side: a cached rewritten plan must be
// rebuilt when the table's Truman policy binding changes.
TEST_F(PolicyEpochTest, CachedTrumanPlanDiesWhenPolicyChanges) {
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  ASSERT_TRUE(s->Execute("prepare q as select grade from grades "
                         "where course-id = $1")
                  .ok());
  auto r = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().relation.num_rows(), 1u);  // own cs101 grade

  // Rebind the policy to a view that exposes nothing.
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("create authorization view nothing as "
                         "select student-id, course-id, grade from grades "
                         "where student-id = 'nobody'")
          .ok());
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "nothing").ok());

  auto after = s->Execute("execute q ('cs101')");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().relation.num_rows(), 0u);
}

// Ad-hoc (non-prepared) Non-Truman verdicts live in the same cache; the
// epoch must gate those too.
TEST_F(PolicyEpochTest, AdHocVerdictCacheRespectsEpoch) {
  const char* sql =
      "select grade from grades where student-id = $user-id";
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  ASSERT_TRUE(db_.Execute(sql, ctx).ok());
  auto cached = db_.Execute(sql, ctx);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.value().validity_from_cache);
  ASSERT_TRUE(db_.ExecuteAsAdmin("revoke select on mygrades from 11").ok());
  auto after = db_.Execute(sql, ctx);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotAuthorized);
}

// Two constants whose 64-bit hashes are equal must not share a verdict.
// The standard library hashes an int64 that no double holds exactly as
// itself, so x = hash(4.0) hashes like 4. With only fingerprints in the
// key, `k = x` was accepted from the cached verdict of `k = 4`, ad hoc and
// through EXECUTE, and returned the row the policy hides.
TEST(StatementCacheCollisionTest, EqualHashConstantsDoNotShareAVerdict) {
  const int64_t x = static_cast<int64_t>(std::hash<double>()(4.0));
  ASSERT_EQ(Value::Int(x).Hash(), Value::Int(4).Hash())
      << "pick another constant: x no longer collides with 4";
  const std::string xs = std::to_string(x);
  Database db;
  const std::string setup =
      "create table t (k bigint, v varchar);"
      "insert into t values (4, 'mine'), (" + xs + ", 'hidden');"
      "create authorization view mine as select * from t where k = 4;"
      "grant select on mine to u";
  ASSERT_TRUE(db.ExecuteScript(setup).ok());
  SessionContext ctx("u");
  ctx.set_mode(EnforcementMode::kNonTruman);

  const std::string hidden = "select v from t where k = " + xs;
  auto alone = db.CheckQueryValidity(hidden, ctx);  // bypasses the cache
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  ASSERT_FALSE(alone.value().valid);
  ASSERT_TRUE(db.Execute("select v from t where k = 4", ctx).ok());
  auto adhoc = db.Execute(hidden, ctx);
  EXPECT_FALSE(adhoc.ok()) << SortedRowsToString(adhoc.value().relation);
  EXPECT_EQ(adhoc.status().code(), StatusCode::kNotAuthorized);

  ConnectionManager cm(db);
  auto s = cm.Open("u", EnforcementMode::kNonTruman);
  ASSERT_TRUE(s->Execute("prepare q as select v from t where k = $1").ok());
  ASSERT_TRUE(s->Execute("execute q (4)").ok());
  auto executed = s->Execute("execute q (" + xs + ")");
  EXPECT_FALSE(executed.ok()) << SortedRowsToString(executed.value().relation);
  EXPECT_EQ(executed.status().code(), StatusCode::kNotAuthorized);
  cm.CloseAll();
}

}  // namespace
}  // namespace fgac
