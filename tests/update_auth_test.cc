// Update authorization (paper Section 4.4): INSERT/UPDATE/DELETE checked
// tuple-by-tuple against parameterized predicates.

#include "core/update_auth.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::SetupUniversity;

class UpdateAuthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    // The paper's two Section 4.4 rules, granted to everyone:
    //   1. a student may register herself,
    //   2. a student may update her own name (standing in for `address`).
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      authorize insert on registered
        where registered.student-id = $user-id;
      authorize update on students (name)
        where old(students.student-id) = $user-id;
      authorize delete on registered
        where registered.student-id = $user-id;
    )sql")
                    .ok());
  }

  SessionContext Student(const std::string& id) {
    SessionContext ctx(id);
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  Database db_;
};

TEST_F(UpdateAuthTest, InsertOwnRegistrationAllowed) {
  auto r = db_.Execute("insert into registered values ('11', 'ee150')",
                       Student("11"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected_rows, 1);
}

TEST_F(UpdateAuthTest, InsertOthersRegistrationDenied) {
  auto r = db_.Execute("insert into registered values ('12', 'ee150')",
                       Student("11"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
}

TEST_F(UpdateAuthTest, MultiRowInsertAllOrNothing) {
  auto r = db_.Execute(
      "insert into registered values ('11', 'ee150'), ('12', 'ee150')",
      Student("11"));
  ASSERT_FALSE(r.ok());
  // Nothing was applied.
  auto count = fgac::testing::MustQueryAdmin(
      &db_, "select count(*) from registered where course-id = 'ee150'");
  EXPECT_EQ(count.rows()[0][0], Value::Int(1));  // only bob's original row
}

TEST_F(UpdateAuthTest, UpdateOwnNameAllowed) {
  auto r = db_.Execute("update students set name = 'alicia' "
                       "where student-id = '11'",
                       Student("11"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected_rows, 1);
  auto rel = fgac::testing::MustQueryAdmin(
      &db_, "select name from students where student-id = '11'");
  EXPECT_EQ(rel.rows()[0][0], Value::String("alicia"));
}

TEST_F(UpdateAuthTest, UpdateOtherStudentsNameDenied) {
  auto r = db_.Execute("update students set name = 'hacked' "
                       "where student-id = '12'",
                       Student("11"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
}

TEST_F(UpdateAuthTest, UpdateUncoveredColumnDenied) {
  // The rule covers only (name); changing `type` is not authorized.
  auto r = db_.Execute("update students set type = 'fulltime' "
                       "where student-id = '11'",
                       Student("11"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
}

TEST_F(UpdateAuthTest, WideUpdateTouchingOthersDenied) {
  // WHERE-less update touches other students' tuples: denied per-tuple.
  auto r = db_.Execute("update students set name = 'x'", Student("11"));
  ASSERT_FALSE(r.ok());
}

TEST_F(UpdateAuthTest, DeleteOwnRegistrationAllowed) {
  auto r = db_.Execute("delete from registered where student-id = '11' "
                       "and course-id = 'cs202'",
                       Student("11"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected_rows, 1);
}

TEST_F(UpdateAuthTest, DeleteOthersRegistrationDenied) {
  auto r = db_.Execute("delete from registered where student-id = '12'",
                       Student("11"));
  ASSERT_FALSE(r.ok());
}

TEST_F(UpdateAuthTest, NoApplicableRuleDenies) {
  auto r = db_.Execute("insert into courses values ('cs303', 'os')",
                       Student("11"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);
}

TEST_F(UpdateAuthTest, AdminModeBypassesRules) {
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  EXPECT_TRUE(
      db_.Execute("insert into courses values ('cs303', 'os')", admin).ok());
}

TEST_F(UpdateAuthTest, GranteeScopedRule) {
  // A rule granted to a specific principal applies only to them.
  ASSERT_TRUE(db_.ExecuteScript("authorize insert on courses to registrar")
                  .ok());
  EXPECT_TRUE(db_.Execute("insert into courses values ('cs404', 'ai')",
                          Student("registrar"))
                  .ok());
  EXPECT_FALSE(db_.Execute("insert into courses values ('cs505', 'ml')",
                           Student("11"))
                   .ok());
}

TEST_F(UpdateAuthTest, DirectAuthorizerApi) {
  SessionContext ctx = Student("11");
  core::UpdateAuthorizer authorizer(db_.catalog(), ctx);
  Row own = {Value::String("11"), Value::String("ee150")};
  Row other = {Value::String("12"), Value::String("ee150")};
  EXPECT_TRUE(authorizer.CheckInsert("registered", own).value());
  EXPECT_FALSE(authorizer.CheckInsert("registered", other).value());
  EXPECT_TRUE(authorizer.CheckDelete("registered", own).value());
  Row old_s = {Value::String("11"), Value::String("alice"),
               Value::String("fulltime")};
  Row new_s = {Value::String("11"), Value::String("ali"),
               Value::String("fulltime")};
  EXPECT_TRUE(
      authorizer.CheckUpdate("students", old_s, new_s, {"name"}).value());
  EXPECT_FALSE(
      authorizer.CheckUpdate("students", old_s, new_s, {"name", "type"})
          .value());
}

// Constraint enforcement on the DML path (admin mode).
class DmlConstraintTest : public ::testing::Test {
 protected:
  void SetUp() override { SetupUniversity(&db_); }
  Database db_;
};

TEST_F(DmlConstraintTest, PrimaryKeyDuplicateRejected) {
  auto r = db_.ExecuteAsAdmin("insert into students values "
                              "('11', 'clone', 'fulltime')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlConstraintTest, NotNullRejected) {
  auto r = db_.ExecuteAsAdmin("insert into students values "
                              "('15', null, 'fulltime')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlConstraintTest, ForeignKeyRejected) {
  auto r = db_.ExecuteAsAdmin("insert into registered values "
                              "('99', 'cs101')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlConstraintTest, TypeMismatchRejected) {
  auto r = db_.ExecuteAsAdmin("insert into grades values ('11', 'ee150', 'A')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlConstraintTest, IntCoercesIntoDoubleColumn) {
  EXPECT_TRUE(
      db_.ExecuteAsAdmin("insert into grades values ('12', 'ee150', 3)").ok());
  auto rel = fgac::testing::MustQueryAdmin(
      &db_, "select grade from grades where course-id = 'ee150'");
  ASSERT_EQ(rel.num_rows(), 1u);
  EXPECT_TRUE(rel.rows()[0][0].is_double());
}

TEST_F(DmlConstraintTest, UpdateEvaluatesAgainstOldRow) {
  ASSERT_TRUE(db_.ExecuteAsAdmin("update grades set grade = grade + 0.5 "
                                 "where student-id = '13'")
                  .ok());
  auto rel = fgac::testing::MustQueryAdmin(
      &db_, "select grade from grades where student-id = '13'");
  EXPECT_EQ(rel.rows()[0][0], Value::Double(2.5));
}

TEST_F(DmlConstraintTest, DeleteWithPredicate) {
  auto r = db_.ExecuteAsAdmin("delete from grades where grade < 3.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().affected_rows, 1);
  EXPECT_EQ(fgac::testing::MustQueryAdmin(&db_, "select count(*) from grades")
                .rows()[0][0],
            Value::Int(3));
}

TEST_F(DmlConstraintTest, VerifyConstraintsDetectsViolation) {
  EXPECT_TRUE(db_.VerifyConstraints().ok());
  // Declared dependency that the data violates (dave isn't registered).
  ASSERT_TRUE(db_.ExecuteAsAdmin("create inclusion dependency esr "
                                 "on students (student-id) "
                                 "references registered (student-id)")
                  .ok());
  Status s = db_.VerifyConstraints();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

// UPDATE and DELETE find their rows through the executor's filter, one
// WHERE conjunct after another: over NULL-bearing columns they touch
// exactly the rows a SELECT with the same WHERE returns.
class DmlWhereTest : public ::testing::Test {
 protected:
  static constexpr const char* kWheres[] = {
      "a = 1 and b = 'x'",
      "b = 'x' and a = 1 and c > 1.0",
      "1 = a and 0.0 <= c",
      "a <> 2 and b <> 'y' and c < 2.0",
      "a = 1 and (b = 'x' or c is null)",
      "c = c and a >= 1 and b is not null",
      "b = 'x' and a is null",
  };

  static void Load(Database* db) {
    ASSERT_TRUE(db->ExecuteScript(R"sql(
      create table t (id int not null primary key, a int, b varchar,
                       c double);
      insert into t values
        (1, 1, 'x', 1.5), (2, null, 'x', 0.0), (3, 1, null, 2.5),
        (4, 2, 'y', null), (5, 1, 'x', null), (6, null, null, null),
        (7, 1, 'y', 0.0), (8, 2, 'x', 2.5), (9, 1, 'x', 0.5);
    )sql")
                    .ok());
  }

  static std::string Ids(Database* db, const std::string& where) {
    return fgac::testing::SortedRowsToString(fgac::testing::MustQueryAdmin(
        db, "select id from t where " + where));
  }
};

TEST_F(DmlWhereTest, UpdateTouchesTheRowsSelectReturns) {
  for (const char* where : kWheres) {
    Database db;
    Load(&db);
    std::string want = Ids(&db, where);
    auto r = db.ExecuteAsAdmin(std::string("update t set b = 'hit' where ") +
                               where);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\nwhere " << where;
    EXPECT_EQ(Ids(&db, "b = 'hit'"), want) << "where " << where;
    EXPECT_EQ(static_cast<size_t>(r.value().affected_rows),
              fgac::testing::MustQueryAdmin(
                  &db, "select id from t where b = 'hit'")
                  .num_rows());
  }
}

TEST_F(DmlWhereTest, DeleteRemovesTheRowsSelectReturns) {
  for (const char* where : kWheres) {
    Database db;
    Load(&db);
    size_t want = fgac::testing::MustQueryAdmin(
                      &db, std::string("select id from t where ") + where)
                      .num_rows();
    auto r = db.ExecuteAsAdmin(std::string("delete from t where ") + where);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\nwhere " << where;
    // As many rows went as the SELECT returned, and none it returned is
    // left: the deleted rows are the SELECT's rows.
    EXPECT_EQ(static_cast<size_t>(r.value().affected_rows), want)
        << "where " << where;
    EXPECT_EQ(Ids(&db, where), "") << "where " << where;
    EXPECT_EQ(fgac::testing::MustQueryAdmin(&db, "select id from t")
                  .num_rows(),
              9u - want)
        << "where " << where;
  }
}

// A conjunct runs only on the rows every earlier conjunct kept. Binding
// normalizes a DML WHERE, which orders AND's operands by fingerprint: both
// spellings below bind as [a = 1, (10 / b) = 5]. Row 1's first conjunct is
// NULL, so its division by zero never runs. Evaluated as one AND tree, the
// NULL left row 1 undecided, the division ran, and the statement failed.
TEST_F(DmlWhereTest, LaterConjunctSkipsRowsAnEarlierOneDropped) {
  for (const char* where : {"a = 1 and 10 / b = 5", "10 / b = 5 and a = 1"}) {
    for (const char* dml :
         {"delete from d where ", "update d set b = 10 where "}) {
      Database db;
      ASSERT_TRUE(db.ExecuteScript(R"sql(
        create table d (id int not null primary key, a int, b int);
        insert into d values (1, null, 0), (2, 1, 2), (3, 2, 0);
      )sql")
                      .ok());
      auto r = db.ExecuteAsAdmin(std::string(dml) + where);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << dml << where;
      EXPECT_EQ(r.value().affected_rows, 1) << dml << where;
      // A division that does run on row 1 still fails.
      auto bad = db.ExecuteAsAdmin(std::string(dml) + "10 / b = 5");
      ASSERT_FALSE(bad.ok()) << dml;
      EXPECT_EQ(bad.status().code(), StatusCode::kExecutionError) << dml;
    }
  }
}

// A multi-row INSERT is checked against its own earlier rows as well as the
// stored ones, and refused before any of its rows is applied.
TEST(InsertKeyTest, MultiRowInsertRepeatingAKeyIsRefused) {
  Database db;
  ASSERT_TRUE(db.ExecuteAsAdmin("create table p (k varchar not null primary "
                                "key, v varchar not null)")
                  .ok());
  auto dup = db.ExecuteAsAdmin("insert into p values ('x', '1'), ('x', '2')");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(
      fgac::testing::MustQueryAdmin(&db, "select count(*) from p").rows()[0][0],
      Value::Int(0));

  auto distinct =
      db.ExecuteAsAdmin("insert into p values ('x', '1'), ('y', '2')");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct.value().affected_rows, 2);
  EXPECT_TRUE(db.VerifyConstraints().ok());
}

// UPDATE and DELETE keep keys unique and foreign keys satisfied: U3 and the
// keyed-middle decomposition are sound only while both hold.
class WriteKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      create table p (k varchar not null primary key, v varchar not null);
      create table c (k varchar not null references p, w varchar not null);
      insert into p values ('a', 'x'), ('b', 'y');
      insert into c values ('a', 'z');
    )sql")
                    .ok());
  }

  std::string Contents() {
    return fgac::testing::SortedRowsToString(
               fgac::testing::MustQueryAdmin(&db_, "select * from p")) +
           fgac::testing::SortedRowsToString(
               fgac::testing::MustQueryAdmin(&db_, "select * from c"));
  }

  void ExpectRefused(const std::string& sql) {
    const std::string before = Contents();
    auto r = db_.ExecuteAsAdmin(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation) << sql;
    EXPECT_EQ(Contents(), before) << sql;
    EXPECT_TRUE(db_.VerifyConstraints().ok()) << sql;
  }

  Database db_;
};

TEST_F(WriteKeyTest, UpdateToDuplicateKeyRefused) {
  ExpectRefused("update p set k = 'a' where k = 'b'");
}

TEST_F(WriteKeyTest, DeleteOfReferencedRowRefused) {
  ExpectRefused("delete from p where k = 'a'");
}

TEST_F(WriteKeyTest, KeyChangeOfReferencedRowRefused) {
  ExpectRefused("update p set k = 'q' where k = 'a'");
}

TEST_F(WriteKeyTest, UnreferencedDeleteAndNonKeyUpdateSucceed) {
  auto changed = db_.ExecuteAsAdmin("update p set k = 'c' where k = 'b'");
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_EQ(changed.value().affected_rows, 1);
  auto updated = db_.ExecuteAsAdmin("update p set v = 'w' where k = 'a'");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value().affected_rows, 1);
  auto deleted = db_.ExecuteAsAdmin("delete from p where k = 'c'");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted.value().affected_rows, 1);
  EXPECT_EQ(Contents(), "('a', 'w')\n('a', 'z')\n");
  EXPECT_TRUE(db_.VerifyConstraints().ok());
}

// The key checks run through the row finder and the key index; their
// errors keep their text.
TEST_F(WriteKeyTest, KeyErrorsKeepTheirText) {
  auto insert = db_.ExecuteAsAdmin("insert into p values ('a', 'again')");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().message(), "duplicate primary key in 'p'");
  auto update = db_.ExecuteAsAdmin("update p set k = 'b' where k = 'a'");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().message(), "duplicate primary key in 'p'");
  auto orphan = db_.ExecuteAsAdmin("insert into c values ('nope', 'z')");
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().message(),
            "foreign key 'fk_c_0' violated: no matching row in 'p'");
  EXPECT_TRUE(db_.VerifyConstraints().ok());
}

TEST(KeyedWriteTest, UpdateSwappingTwoKeysSucceeds) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    create table q (k int not null primary key, v varchar not null);
    insert into q values (1, 'x'), (2, 'y'), (3, 'z');
  )sql")
                  .ok());
  auto swap = db.ExecuteAsAdmin("update q set k = 3 - k where k < 3");
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_EQ(swap.value().affected_rows, 2);
  EXPECT_EQ(fgac::testing::SortedRowsToString(
                fgac::testing::MustQueryAdmin(&db, "select k, v from q")),
            "(1, 'y')\n(2, 'x')\n(3, 'z')\n");
  // Two images sharing a key are refused, and so is one that collides
  // with a row the UPDATE leaves in place.
  auto same = db.ExecuteAsAdmin("update q set k = 7 where k < 3");
  ASSERT_FALSE(same.ok());
  EXPECT_EQ(same.status().message(), "duplicate primary key in 'q'");
  auto kept = db.ExecuteAsAdmin("update q set k = 3 where k = 1");
  ASSERT_FALSE(kept.ok());
  EXPECT_EQ(kept.status().message(), "duplicate primary key in 'q'");
  EXPECT_TRUE(db.VerifyConstraints().ok());
}

TEST(KeyedWriteTest, NullKeyPartsEqualEachOther) {
  // A table-level PRIMARY KEY does not imply NOT NULL; a NULL key part
  // equals NULL, as Value::operator== has it, and the index finds it.
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    create table n (a int, b int, primary key (a, b));
    insert into n values (null, 1), (1, 1);
  )sql")
                  .ok());
  auto dup = db.ExecuteAsAdmin("insert into n values (null, 1)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().message(), "duplicate primary key in 'n'");
  EXPECT_TRUE(db.ExecuteAsAdmin("insert into n values (null, 2)").ok());
  auto collide = db.ExecuteAsAdmin("update n set a = null where a = 1");
  ASSERT_FALSE(collide.ok());
  EXPECT_EQ(collide.status().message(), "duplicate primary key in 'n'");
}

TEST(KeyedWriteTest, KeyedWritesMatchTheRowsTheyName) {
  // UPDATE and DELETE by the whole key take the index; by part of it, the
  // whole table. Either way they touch exactly the rows a SELECT names.
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    create table g (s varchar not null, c varchar not null,
                    grade double not null, primary key (s, c));
  )sql")
                  .ok());
  std::string values;
  for (int s = 0; s < 30; ++s) {
    for (int c = 0; c < 3; ++c) {
      if (!values.empty()) values += ", ";
      values += "('s" + std::to_string(s) + "', 'c" + std::to_string(c) +
                "', " + std::to_string(s + c) + ")";
    }
  }
  ASSERT_TRUE(db.ExecuteAsAdmin("insert into g values " + values).ok());
  auto one = db.ExecuteAsAdmin(
      "update g set grade = 100 where c = 'c1' and s = 's17'");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value().affected_rows, 1);
  auto gone = db.ExecuteAsAdmin("delete from g where s = 's17' and c = 'c2'");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().affected_rows, 1);
  auto none = db.ExecuteAsAdmin(
      "delete from g where s = 's17' and c = 'c2' and grade > 0");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().affected_rows, 0);
  auto part = db.ExecuteAsAdmin("delete from g where s = 's3'");
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part.value().affected_rows, 3);
  EXPECT_EQ(fgac::testing::SortedRowsToString(fgac::testing::MustQueryAdmin(
                &db, "select c, grade from g where s = 's17'")),
            "('c0', 17.0)\n('c1', 100.0)\n");
  EXPECT_EQ(fgac::testing::MustQueryAdmin(&db, "select count(*) from g")
                .rows()[0][0],
            Value::Int(86));
  EXPECT_TRUE(db.VerifyConstraints().ok());
}

}  // namespace
}  // namespace fgac
