// StmtToSql round-trips for every statement kind.

#include "sql/printer.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sql/parser.h"

namespace fgac::sql {
namespace {

/// Parses, prints, reparses, reprints, and requires a fixed point.
void CheckRoundTrip(const std::string& text) {
  auto first = Parser::ParseStatement(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString() << "\nsql: " << text;
  std::string printed = StmtToSql(*first.value());
  auto second = Parser::ParseStatement(printed);
  ASSERT_TRUE(second.ok()) << "printed form does not reparse: " << printed;
  EXPECT_EQ(printed, StmtToSql(*second.value()));
}

TEST(PrinterTest, CreateTable) {
  CheckRoundTrip(
      "create table grades (student-id varchar not null, grade double, "
      "primary key (student-id), "
      "foreign key (student-id) references students (student-id))");
}

TEST(PrinterTest, CreateViews) {
  CheckRoundTrip("create view v as select a from t where b = 1");
  CheckRoundTrip(
      "create authorization view v as select * from t where u = $user-id");
  CheckRoundTrip(
      "create authorization view v as select * from t where k = $$1");
}

TEST(PrinterTest, CreateInclusionDependency) {
  CheckRoundTrip(
      "create inclusion dependency d on students (student-id) "
      "where type = 'fulltime' references registered (student-id)");
}

TEST(PrinterTest, Dml) {
  CheckRoundTrip("insert into t values (1, 'a''b'), (2, null)");
  CheckRoundTrip("insert into t (a, b) values (1, 2)");
  CheckRoundTrip("update t set a = a + 1, b = 'x' where c in (1, 2)");
  CheckRoundTrip("delete from t where a between 1 and 5");
}

TEST(PrinterTest, GrantsAndAuthorize) {
  CheckRoundTrip("grant select on v to alice");
  CheckRoundTrip("revoke select on v from alice");
  CheckRoundTrip(
      "authorize update on students (name) "
      "where old(students.student-id) = $user-id to alice");
  CheckRoundTrip("authorize insert on t where t.u = $user-id");
  CheckRoundTrip("authorize delete on t");
}

TEST(PrinterTest, DropAndExplain) {
  CheckRoundTrip("drop table t");
  CheckRoundTrip("drop view v");
  CheckRoundTrip("explain select a from t where b = 1 order by 1 limit 3");
}

TEST(PrinterTest, PreparedStatements) {
  CheckRoundTrip("prepare q as select grade from grades "
                 "where course-id = $1 and student-id = $user-id");
  CheckRoundTrip("execute q ('cs101', 2)");
  CheckRoundTrip("execute q");
  CheckRoundTrip("deallocate q");
  CheckRoundTrip("deallocate all");
}

TEST(PrinterTest, SelectWithEverything) {
  CheckRoundTrip(
      "select distinct t.a as x, count(*) from t join u on t.k = u.k "
      "where t.b like 'z%' and t.c is not null "
      "group by t.a having count(*) >= 2 "
      "union all select a, 0 from t order by 1 desc limit 7");
}

TEST(PrinterTest, ExprForms) {
  auto expr = Parser::ParseExpression(
      "not (a < 1 or b >= 2) and c not in (3, 4) and d is null "
      "and -e + f * 2 <> 0 and g not between 1 and 2");
  ASSERT_TRUE(expr.ok());
  std::string printed = ExprToSql(expr.value());
  auto reparsed = Parser::ParseExpression(printed);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(printed, ExprToSql(reparsed.value()));
}

TEST(PrinterTest, DoubleLiteralsPrintExactly) {
  // The canonical text breaks verdict-key ties, so distinct doubles must
  // print distinctly and re-parse to the identical value.
  std::set<std::string> printed;
  for (const char* literal : {"0.3", "0.30000000000000004", "12345678901.5",
                              "3.0", "1e300", "5e-324"}) {
    auto expr = Parser::ParseExpression(std::string("grade = ") + literal);
    ASSERT_TRUE(expr.ok()) << literal;
    const std::string sql = ExprToSql(expr.value());
    auto reparsed = Parser::ParseExpression(sql);
    ASSERT_TRUE(reparsed.ok()) << sql;
    EXPECT_EQ(reparsed.value()->right->value.double_value(),
              expr.value()->right->value.double_value())
        << sql;
    EXPECT_TRUE(printed.insert(sql).second) << "printed twice: " << sql;
  }
  EXPECT_EQ(printed.count("(grade = 3.0)"), 1u);
  EXPECT_EQ(printed.count("(grade = 12345678901.5)"), 1u);
}

}  // namespace
}  // namespace fgac::sql
