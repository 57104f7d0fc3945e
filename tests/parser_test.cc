#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/printer.h"

namespace fgac::sql {
namespace {

std::shared_ptr<const SelectStmt> MustSelect(const std::string& text) {
  Result<std::shared_ptr<const SelectStmt>> r = Parser::ParseSelect(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return r.ok() ? r.value() : nullptr;
}

StmtPtr MustStmt(const std::string& text) {
  Result<StmtPtr> r = Parser::ParseStatement(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(ParserTest, SimpleSelect) {
  auto s = MustSelect("select a, b from t where a = 1");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->items.size(), 2u);
  EXPECT_EQ(s->from.size(), 1u);
  ASSERT_NE(s->where, nullptr);
  EXPECT_EQ(s->where->kind, ExprKind::kBinary);
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  auto s = MustSelect("select *, t.* from t");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->items[0].is_star);
  EXPECT_TRUE(s->items[1].is_star);
  EXPECT_EQ(s->items[1].star_qualifier, "t");
}

TEST(ParserTest, DistinctGroupHavingOrderLimit) {
  auto s = MustSelect(
      "select distinct course-id, avg(grade) as g from grades "
      "group by course-id having count(*) >= 2 order by g desc limit 5");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->distinct);
  EXPECT_EQ(s->group_by.size(), 1u);
  ASSERT_NE(s->having, nullptr);
  EXPECT_EQ(s->order_by.size(), 1u);
  EXPECT_TRUE(s->order_by[0].descending);
  EXPECT_EQ(s->limit, 5);
  EXPECT_EQ(s->items[1].alias, "g");
}

TEST(ParserTest, ExplicitJoin) {
  auto s = MustSelect(
      "select * from a join b on a.x = b.y inner join c on b.z = c.w");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->from.size(), 1u);
  EXPECT_EQ(s->from[0]->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(s->from[0]->join_left->kind, TableRef::Kind::kJoin);
}

TEST(ParserTest, CommaJoinWithAliases) {
  auto s = MustSelect("select g.grade from grades g, registered as r");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->from.size(), 2u);
  EXPECT_EQ(s->from[0]->alias, "g");
  EXPECT_EQ(s->from[1]->alias, "r");
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = Parser::ParseExpression("a + b * c = d or e and not f");
  ASSERT_TRUE(e.ok());
  // Top is OR.
  EXPECT_EQ(e.value()->bin_op, BinOp::kOr);
  EXPECT_EQ(e.value()->right->bin_op, BinOp::kAnd);
  // a + (b*c)
  EXPECT_EQ(e.value()->left->left->bin_op, BinOp::kAdd);
  EXPECT_EQ(e.value()->left->left->right->bin_op, BinOp::kMul);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  EXPECT_TRUE(Parser::ParseExpression("x in (1, 2, 3)").ok());
  EXPECT_TRUE(Parser::ParseExpression("x not in (1)").ok());
  EXPECT_TRUE(Parser::ParseExpression("x between 1 and 10").ok());
  EXPECT_TRUE(Parser::ParseExpression("name like 'a%'").ok());
  EXPECT_TRUE(Parser::ParseExpression("x is null").ok());
  EXPECT_TRUE(Parser::ParseExpression("x is not null").ok());
}

TEST(ParserTest, Parameters) {
  auto e = Parser::ParseExpression("student-id = $user-id");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->right->kind, ExprKind::kParam);
  EXPECT_EQ(e.value()->right->param_name, "user-id");
  e = Parser::ParseExpression("student-id = $$1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->right->kind, ExprKind::kAccessParam);
}

TEST(ParserTest, CreateTableWithConstraints) {
  auto stmt = MustStmt(R"(
    create table grades (
      student-id varchar not null references students,
      course-id varchar not null,
      grade double,
      primary key (student-id, course-id),
      foreign key (course-id) references courses (course-id)
    ))");
  ASSERT_NE(stmt, nullptr);
  auto* ct = static_cast<const CreateTableStmt*>(stmt.get());
  EXPECT_EQ(ct->columns.size(), 3u);
  EXPECT_EQ(ct->primary_key.size(), 2u);
  EXPECT_EQ(ct->foreign_keys.size(), 2u);
}

TEST(ParserTest, CreateAuthorizationView) {
  auto stmt = MustStmt(
      "create authorization view mygrades as "
      "select * from grades where student-id = $user-id");
  ASSERT_NE(stmt, nullptr);
  auto* cv = static_cast<const CreateViewStmt*>(stmt.get());
  EXPECT_TRUE(cv->authorization);
  EXPECT_EQ(cv->name, "mygrades");
}

TEST(ParserTest, CreateInclusionDependency) {
  auto stmt = MustStmt(
      "create inclusion dependency ft_reg on students (student-id) "
      "where type = 'fulltime' references registered (student-id)");
  ASSERT_NE(stmt, nullptr);
  auto* ci = static_cast<const CreateInclusionStmt*>(stmt.get());
  EXPECT_EQ(ci->src_table, "students");
  ASSERT_NE(ci->src_where, nullptr);
  EXPECT_EQ(ci->dst_table, "registered");
}

TEST(ParserTest, DmlStatements) {
  EXPECT_NE(MustStmt("insert into t values (1, 'a'), (2, 'b')"), nullptr);
  EXPECT_NE(MustStmt("insert into t (a, b) values (1, 2)"), nullptr);
  EXPECT_NE(MustStmt("update t set a = a + 1 where b = 2"), nullptr);
  EXPECT_NE(MustStmt("delete from t where a = 1"), nullptr);
}

TEST(ParserTest, GrantAndAuthorize) {
  EXPECT_NE(MustStmt("grant select on mygrades to alice"), nullptr);
  auto stmt = MustStmt(
      "authorize update on students (address) "
      "where old(students.student-id) = $user-id to alice");
  ASSERT_NE(stmt, nullptr);
  auto* a = static_cast<const AuthorizeStmt*>(stmt.get());
  EXPECT_EQ(a->op, AuthorizeStmt::Op::kUpdate);
  EXPECT_EQ(a->columns.size(), 1u);
  EXPECT_EQ(a->grantee, "alice");
}

TEST(ParserTest, PreparedStatements) {
  auto stmt = MustStmt("prepare q as select grade from grades "
                       "where course-id = $1 and student-id = $user-id");
  ASSERT_NE(stmt, nullptr);
  auto* p = static_cast<const PrepareStmt*>(stmt.get());
  EXPECT_EQ(p->kind(), StmtKind::kPrepare);
  EXPECT_EQ(p->name, "q");
  ASSERT_NE(p->select, nullptr);

  auto exec = MustStmt("execute q ('cs101', 2)");
  ASSERT_NE(exec, nullptr);
  auto* e = static_cast<const ExecuteStmt*>(exec.get());
  EXPECT_EQ(e->name, "q");
  EXPECT_EQ(e->args.size(), 2u);
  // No-argument EXECUTE omits the parens.
  auto exec0 = MustStmt("execute q");
  auto* e0 = static_cast<const ExecuteStmt*>(exec0.get());
  EXPECT_EQ(e0->args.size(), 0u);

  auto dealloc = MustStmt("deallocate q");
  auto* d = static_cast<const DeallocateStmt*>(dealloc.get());
  EXPECT_EQ(d->name, "q");
  auto dealloc_all = MustStmt("deallocate all");
  auto* all = static_cast<const DeallocateStmt*>(dealloc_all.get());
  EXPECT_TRUE(all->name.empty());

  EXPECT_FALSE(Parser::ParseStatement("prepare q select 1").ok());
  EXPECT_FALSE(Parser::ParseStatement("prepare as select 1").ok());
  EXPECT_FALSE(Parser::ParseStatement("execute q (1,").ok());
  EXPECT_FALSE(Parser::ParseStatement("deallocate").ok());
}

TEST(ParserTest, ExplainExecuteComposesWithPreparedStatements) {
  auto stmt = MustStmt("explain analyze execute q ('cs101', 2)");
  ASSERT_NE(stmt, nullptr);
  auto* ex = static_cast<const ExplainStmt*>(stmt.get());
  EXPECT_EQ(ex->kind(), StmtKind::kExplain);
  EXPECT_TRUE(ex->analyze);
  EXPECT_EQ(ex->select, nullptr);
  ASSERT_NE(ex->execute, nullptr);
  EXPECT_EQ(ex->execute->name, "q");
  EXPECT_EQ(ex->execute->args.size(), 2u);
  // The printed form re-parses to the same statement.
  std::string printed = StmtToSql(*stmt);
  EXPECT_EQ(printed, "EXPLAIN ANALYZE EXECUTE q ('cs101', 2)");
  auto again = MustStmt(printed);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(StmtToSql(*again), printed);

  auto plain_stmt = MustStmt("explain execute q");
  ASSERT_NE(plain_stmt, nullptr);
  auto* plain = static_cast<const ExplainStmt*>(plain_stmt.get());
  EXPECT_FALSE(plain->analyze);
  ASSERT_NE(plain->execute, nullptr);
  EXPECT_EQ(plain->execute->args.size(), 0u);
  EXPECT_EQ(StmtToSql(*plain), "EXPLAIN EXECUTE q");

  EXPECT_FALSE(Parser::ParseStatement("explain analyze execute").ok());
  EXPECT_FALSE(Parser::ParseStatement("explain execute q (1,").ok());
}

TEST(ParserTest, RejectsNestedSubqueries) {
  // The paper's Section 5 assumption, surfaced as NotImplemented.
  auto r = Parser::ParseStatement("select * from (select * from t)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
  r = Parser::ParseStatement("select * from t where x in (select y from u)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
}

TEST(ParserTest, SyntaxErrorsReported) {
  EXPECT_FALSE(Parser::ParseStatement("select from where").ok());
  EXPECT_FALSE(Parser::ParseStatement("selec 1").ok());
  EXPECT_FALSE(Parser::ParseStatement("select 1 extra_garbage, ,").ok());
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto r = Parser::ParseScript("select 1; select 2;; select 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 3u);
}

TEST(ParserRoundTripTest, PrinterOutputReparses) {
  const char* queries[] = {
      "select a, b from t where a = 1 and b <> 'x'",
      "select distinct course-id, avg(grade) from grades group by course-id "
      "having count(*) >= 2 order by 1 desc limit 3",
      "select * from a join b on a.x = b.y where a.z in (1, 2)",
      "select count(*) from t where x between 1 and 5 or name like 'a%'",
  };
  for (const char* q : queries) {
    auto first = MustSelect(q);
    ASSERT_NE(first, nullptr);
    std::string printed = SelectToSql(*first);
    auto second = MustSelect(printed);
    ASSERT_NE(second, nullptr) << "printed form: " << printed;
    EXPECT_EQ(printed, SelectToSql(*second)) << "unstable print: " << printed;
  }
}

}  // namespace
}  // namespace fgac::sql
