// Facade-level tests: DDL lifecycle, REVOKE, EXPLAIN, script handling and
// session-mode dispatch.

#include "core/database.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
  }
  SessionContext Student(const std::string& id) {
    SessionContext ctx(id);
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }
  Database db_;
};

TEST_F(DatabaseTest, RevokeRemovesAccess) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  const std::string q = "select grade from grades where student-id = '11'";
  EXPECT_TRUE(db_.Execute(q, Student("11")).ok());
  ASSERT_TRUE(db_.ExecuteAsAdmin("revoke select on mygrades from 11").ok());
  auto r = db_.Execute(q, Student("11"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
}

TEST_F(DatabaseTest, RevokeInvalidatesCachedVerdicts) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, Student("11")).ok());
  ASSERT_TRUE(db_.Execute(q, Student("11")).ok());  // cached accept
  ASSERT_TRUE(db_.ExecuteAsAdmin("revoke select on mygrades from 11").ok());
  // The cached acceptance must NOT survive the revocation.
  EXPECT_FALSE(db_.Execute(q, Student("11")).ok());
}

TEST_F(DatabaseTest, RevokeWithoutGrantFails) {
  auto r = db_.ExecuteAsAdmin("revoke select on mygrades from 11");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCatalogError);
}

TEST_F(DatabaseTest, ExplainShowsPlans) {
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  auto r = db_.Execute(
      "explain select s.name from students s, grades g "
      "where s.student-id = g.student-id",
      admin);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  EXPECT_NE(text.find("canonical plan:"), std::string::npos);
  EXPECT_NE(text.find("optimized plan"), std::string::npos);
  EXPECT_NE(text.find("Join"), std::string::npos);
}

TEST_F(DatabaseTest, ExplainShowsValidityAndWitness) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  auto r = db_.Execute("explain select grade from grades "
                       "where student-id = '11'",
                       Student("11"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  EXPECT_NE(text.find("unconditionally valid"), std::string::npos);
  EXPECT_NE(text.find("witness rewriting"), std::string::npos);
  EXPECT_NE(text.find("view:mygrades"), std::string::npos);
}

TEST_F(DatabaseTest, ExplainShowsRejection) {
  auto r = db_.Execute("explain select * from grades", Student("11"));
  ASSERT_TRUE(r.ok());
  std::string text;
  for (const Row& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  EXPECT_NE(text.find("REJECTED"), std::string::npos);
}

TEST_F(DatabaseTest, ExplainShowsTrumanRewrite) {
  ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kTruman);
  auto r = db_.Execute("explain select * from grades", ctx);
  ASSERT_TRUE(r.ok());
  std::string text;
  for (const Row& row : r.value().relation.rows()) {
    text += row[0].string_value() + "\n";
  }
  EXPECT_NE(text.find("truman-rewritten plan:"), std::string::npos);
}

TEST_F(DatabaseTest, DropTableRemovesSchemaAndData) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("create table tmp (x int)").ok());
  ASSERT_TRUE(db_.ExecuteAsAdmin("insert into tmp values (1)").ok());
  ASSERT_TRUE(db_.ExecuteAsAdmin("drop table tmp").ok());
  EXPECT_FALSE(db_.catalog().HasTable("tmp"));
  EXPECT_FALSE(db_.state().HasTable("tmp"));
  EXPECT_FALSE(db_.ExecuteAsAdmin("select * from tmp").ok());
}

TEST_F(DatabaseTest, DropView) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("drop view avggrades").ok());
  EXPECT_FALSE(db_.catalog().HasView("avggrades"));
}

TEST_F(DatabaseTest, ScriptStopsAtFirstError) {
  Status s = db_.ExecuteScript(
      "create table ok1 (x int); create table ok1 (x int); "
      "create table never (x int)");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(db_.catalog().HasTable("ok1"));
  EXPECT_FALSE(db_.catalog().HasTable("never"));
}

TEST_F(DatabaseTest, VersionsAdvance) {
  uint64_t epoch = db_.policy_epoch();
  uint64_t data = db_.data_version();
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  EXPECT_GT(db_.policy_epoch(), epoch);
  EXPECT_EQ(db_.data_version(), data);
  ASSERT_TRUE(
      db_.ExecuteAsAdmin("insert into courses values ('cs9', 'x')").ok());
  EXPECT_GT(db_.data_version(), data);
  // Table and constraint DDL advance the one catalog epoch too.
  epoch = db_.policy_epoch();
  ASSERT_TRUE(db_.ExecuteAsAdmin("create table epochs (x int)").ok());
  EXPECT_GT(db_.policy_epoch(), epoch);
  epoch = db_.policy_epoch();
  catalog::InclusionDependency dep;
  dep.name = "epochs_self";
  dep.src_table = "epochs";
  dep.src_columns = {"x"};
  dep.dst_table = "epochs";
  dep.dst_columns = {"x"};
  ASSERT_TRUE(db_.catalog().AddConstraint(std::move(dep)).ok());
  EXPECT_GT(db_.policy_epoch(), epoch);
}

TEST_F(DatabaseTest, DdlMessagesAreInformative) {
  auto r = db_.ExecuteAsAdmin("create table msgs (x int)");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().message.find("msgs"), std::string::npos);
}

TEST_F(DatabaseTest, SessionParamsReachViews) {
  // A view keyed on a non-user parameter ($term).
  ASSERT_TRUE(db_.ExecuteScript(
                     "create authorization view term_regs as "
                     "select * from registered where course-id = $term;"
                     "grant select on term_regs to 11")
                  .ok());
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  ctx.SetParam("term", Value::String("cs101"));
  auto r = db_.Execute(
      "select * from registered where course-id = 'cs101'", ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  // A different term parameter authorizes a different slice.
  SessionContext other("11");
  other.set_mode(EnforcementMode::kNonTruman);
  other.SetParam("term", Value::String("cs202"));
  EXPECT_FALSE(
      db_.Execute("select * from registered where course-id = 'cs101'", other)
          .ok());
}

TEST_F(DatabaseTest, NumericUserIdsWork) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 13").ok());
  auto rel = fgac::testing::MustQuery(
      &db_, "select grade from grades where student-id = '13'", Student("13"));
  EXPECT_EQ(rel.num_rows(), 1u);
}

}  // namespace
}  // namespace fgac
