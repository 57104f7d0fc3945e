// Unit tests for the vectorized execution primitives (ColumnVector /
// DataChunk) plus a large cross-engine differential property test: the
// batch executor must agree with the row-at-a-time reference evaluator on
// 1000+ generated queries over NULL-heavy data.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "algebra/binder.h"
#include "algebra/reference_eval.h"
#include "common/value.h"
#include "core/database.h"
#include "exec/chunk.h"
#include "exec/eval.h"
#include "exec/executor.h"
#include "exec/row_finder.h"
#include "sql/parser.h"
#include "storage/relation.h"
#include "storage/table_data.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using exec::ColumnVector;
using exec::DataChunk;
using exec::Selection;
using fgac::testing::QueryGenerator;
using fgac::testing::SortedRowsToString;

TEST(ColumnVectorTest, TypedAppendAndAccess) {
  ColumnVector col;
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kUntyped);
  col.AppendInt(7);
  col.AppendInt(-3);
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kInt);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_TRUE(col.AllValid());
  EXPECT_EQ(col.IntAt(0), 7);
  EXPECT_EQ(col.IntAt(1), -3);
  EXPECT_EQ(col.GetValue(1), Value::Int(-3));
  EXPECT_EQ(col.KindAt(0), Value::Kind::kInt);
}

TEST(ColumnVectorTest, NullMaskKeepsTypedArraysAligned) {
  ColumnVector col;
  col.AppendInt(1);
  col.AppendNull();
  col.AppendInt(3);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.AllValid());
  EXPECT_TRUE(col.IsValid(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.IsValid(2));
  // The placeholder at position 1 must not shift later entries.
  EXPECT_EQ(col.IntAt(2), 3);
  EXPECT_EQ(col.GetValue(1), Value::Null());
  EXPECT_EQ(col.KindAt(1), Value::Kind::kNull);
}

TEST(ColumnVectorTest, DegenerifiesOnKindMix) {
  ColumnVector col;
  col.AppendInt(42);
  col.AppendString("hi");
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kGeneric);
  EXPECT_EQ(col.GetValue(0), Value::Int(42));
  EXPECT_EQ(col.GetValue(1), Value::String("hi"));
}

TEST(ColumnVectorTest, AppendRangeCopiesValuesAndValidity) {
  ColumnVector src;
  src.AppendDouble(1.5);
  src.AppendNull();
  src.AppendDouble(2.5);
  src.AppendDouble(3.5);

  ColumnVector dst;
  dst.AppendRange(src, 1, 3);  // null, 2.5, 3.5
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_EQ(dst.GetValue(1), Value::Double(2.5));
  EXPECT_EQ(dst.GetValue(2), Value::Double(3.5));

  // Range append onto a column with a conflicting tag must degenerify,
  // not corrupt.
  ColumnVector mixed;
  mixed.AppendString("s");
  mixed.AppendRange(src, 0, 2);
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed.GetValue(0), Value::String("s"));
  EXPECT_EQ(mixed.GetValue(1), Value::Double(1.5));
  EXPECT_TRUE(mixed.IsNull(2));
}

TEST(ColumnVectorTest, AppendSelectedGathers) {
  ColumnVector src;
  for (int i = 0; i < 6; ++i) src.AppendInt(i * 10);
  Selection sel = {5, 0, 3};
  ColumnVector dst;
  dst.AppendSelected(src, sel);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.IntAt(0), 50);
  EXPECT_EQ(dst.IntAt(1), 0);
  EXPECT_EQ(dst.IntAt(2), 30);
}

TEST(ColumnVectorTest, TruncateMaintainsNullCount) {
  ColumnVector col;
  col.AppendInt(1);
  col.AppendNull();
  col.AppendNull();
  col.Truncate(2);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_FALSE(col.AllValid());
  col.Truncate(1);
  EXPECT_TRUE(col.AllValid());
}

TEST(ColumnVectorTest, SetOverwritesInPlace) {
  ColumnVector col;
  for (int64_t v : {1, 2, 3}) col.AppendInt(v);
  col.Set(1, Value::Int(20));  // typed overwrite
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kInt);
  EXPECT_EQ(col.IntAt(1), 20);
  EXPECT_TRUE(col.AllValid());
  col.Set(0, Value::Null());  // value to NULL
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_FALSE(col.AllValid());
  col.Set(0, Value::Int(10));  // NULL to value
  EXPECT_EQ(col.GetValue(0), Value::Int(10));
  EXPECT_TRUE(col.AllValid());
  col.Set(0, Value::Null());  // setting NULL twice counts it once
  col.Set(0, Value::Null());
  col.Set(0, Value::Int(10));
  EXPECT_TRUE(col.AllValid());
  // A mismatched kind degrades the column, as Append does.
  col.Set(2, Value::String("x"));
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kGeneric);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0), Value::Int(10));
  EXPECT_EQ(col.GetValue(1), Value::Int(20));
  EXPECT_EQ(col.GetValue(2), Value::String("x"));
  col.Set(1, Value::Null());
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.AllValid());
}

TEST(ColumnVectorTest, SetTypesAnAllNullColumn) {
  ColumnVector col;
  col.AppendNull();
  col.AppendNull();
  col.Set(1, Value::Double(2.5));
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kDouble);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_EQ(col.DoubleAt(1), 2.5);
  EXPECT_FALSE(col.AllValid());
  col.Set(0, Value::Double(1.5));
  EXPECT_TRUE(col.AllValid());
  EXPECT_EQ(col.GetValue(0), Value::Double(1.5));
}

TEST(ColumnVectorTest, EraseCompactsInPlace) {
  // s0, s1, NULL, s3, s4
  auto make = [] {
    ColumnVector col;
    for (int i = 0; i < 5; ++i) {
      if (i == 2) {
        col.AppendNull();
        continue;
      }
      std::string s = "s";
      s += std::to_string(i);
      col.AppendString(s);
    }
    return col;
  };
  auto values = [](const ColumnVector& col) {
    std::string out;
    for (size_t i = 0; i < col.size(); ++i) {
      out += col.GetValue(i).ToString() + " ";
    }
    return out;
  };
  ColumnVector first = make();
  first.Erase({0});
  EXPECT_EQ(values(first), "'s1' NULL 's3' 's4' ");
  EXPECT_FALSE(first.AllValid());
  ColumnVector last = make();
  last.Erase({4});
  EXPECT_EQ(values(last), "'s0' 's1' NULL 's3' ");
  ColumnVector middle = make();
  middle.Erase({1, 2});
  EXPECT_EQ(values(middle), "'s0' 's3' 's4' ");
  EXPECT_TRUE(middle.AllValid());
  EXPECT_EQ(middle.tag(), ColumnVector::Tag::kString);
  ColumnVector every = make();
  every.Erase({0, 1, 2, 3, 4});
  EXPECT_EQ(every.size(), 0u);
  EXPECT_TRUE(every.AllValid());
  // Generic storage compacts the same way.
  ColumnVector generic = make();
  generic.Set(0, Value::Int(7));
  ASSERT_EQ(generic.tag(), ColumnVector::Tag::kGeneric);
  generic.Erase({1, 3});
  EXPECT_EQ(values(generic), "7 NULL 's4' ");
}

TEST(DataChunkTest, RowRoundTripWithNulls) {
  DataChunk chunk(3);
  chunk.AppendRow({Value::String("a"), Value::Null(), Value::Double(4.0)});
  chunk.AppendRow({Value::String("b"), Value::Int(2), Value::Null()});
  ASSERT_EQ(chunk.size(), 2u);
  Row r0 = chunk.GetRow(0);
  EXPECT_EQ(r0[0], Value::String("a"));
  EXPECT_EQ(r0[1], Value::Null());
  EXPECT_EQ(r0[2], Value::Double(4.0));
  Row r1 = chunk.GetRow(1);
  EXPECT_EQ(r1[1], Value::Int(2));
  EXPECT_EQ(r1[2], Value::Null());
}

TEST(DataChunkTest, ZeroColumnChunkCarriesCardinality) {
  DataChunk chunk(0);
  chunk.SetCardinality(5);
  EXPECT_EQ(chunk.size(), 5u);
  EXPECT_EQ(chunk.num_columns(), 0u);
  chunk.Reset(0);
  EXPECT_TRUE(chunk.empty());
}

TEST(DataChunkTest, AppendSelectedGathersRows) {
  DataChunk src(2);
  for (int i = 0; i < 4; ++i) {
    src.AppendRow({Value::Int(i), Value::String(std::to_string(i))});
  }
  DataChunk dst(2);
  dst.AppendSelected(src, {3, 1});
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.GetRow(0)[0], Value::Int(3));
  EXPECT_EQ(dst.GetRow(1)[1], Value::String("1"));
}

class ExecChunkQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The paper's university tables are NOT NULL throughout, so this
    // fixture builds a nullable mirror of the same schema (same table and
    // column names — QueryGenerator works unchanged) and loads NULL-heavy
    // data: 3VL must behave identically in both engines.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      create table students (
        student-id varchar not null primary key,
        name varchar,
        type varchar
      );
      create table courses (
        course-id varchar not null primary key,
        name varchar
      );
      create table registered (
        student-id varchar not null,
        course-id varchar not null,
        primary key (student-id, course-id)
      );
      create table grades (
        student-id varchar not null,
        course-id varchar not null,
        grade double,
        primary key (student-id, course-id)
      );
      insert into students values
        ('11', 'alice', 'fulltime'),
        ('12', 'bob', 'fulltime'),
        ('13', 'carol', 'parttime'),
        ('14', 'dave', 'parttime'),
        ('15', null, 'fulltime'),
        ('16', 'frank', null),
        ('17', null, null);
      insert into courses values
        ('cs101', 'intro programming'),
        ('cs202', 'databases'),
        ('ee150', null);
      insert into registered values
        ('11', 'cs101'), ('11', 'cs202'), ('12', 'cs101'), ('12', 'ee150'),
        ('13', 'cs202'), ('15', 'cs101'), ('16', 'ee150'), ('17', 'cs202');
      insert into grades values
        ('11', 'cs101', 4.0),
        ('12', 'cs101', 3.0),
        ('11', 'cs202', 3.5),
        ('13', 'cs202', 2.0),
        ('15', 'cs101', null),
        ('16', 'ee150', null),
        ('17', 'cs202', null);
    )sql")
                    .ok());
  }

  algebra::PlanPtr MustBind(const std::string& sql) {
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    algebra::Binder binder(db_.catalog(), {});
    auto plan = binder.BindSelect(*stmt.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.value();
  }

  core::Database db_;
};

// Satellite regression for the ScanOp borrowed-pointer contract: a drained
// physical tree must be re-Open()able and produce identical results, and
// Next() past exhaustion must keep returning false with an empty chunk.
TEST_F(ExecChunkQueryTest, ReopeningDrainedPlanReplaysResults) {
  algebra::PlanPtr plan = MustBind(
      "select s.student-id, g.grade from students s, grades g "
      "where s.student-id = g.student-id");
  auto root = exec::BuildPhysicalPlan(plan, db_.state());
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  auto drain = [&]() {
    std::vector<Row> rows;
    DataChunk chunk;
    while (true) {
      auto more = root.value()->Next(chunk);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) break;
      EXPECT_FALSE(chunk.empty());
      for (size_t i = 0; i < chunk.size(); ++i) rows.push_back(chunk.GetRow(i));
    }
    return rows;
  };

  ASSERT_TRUE(root.value()->Open().ok());
  std::vector<Row> first = drain();
  EXPECT_FALSE(first.empty());

  // Past exhaustion: still false, still empty.
  DataChunk chunk;
  auto more = root.value()->Next(chunk);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  EXPECT_TRUE(chunk.empty());

  // Re-open and drain again: the borrow of table storage is still live, so
  // the replay must match exactly.
  ASSERT_TRUE(root.value()->Open().ok());
  std::vector<Row> second = drain();

  storage::Relation a({"sid", "grade"});
  storage::Relation b({"sid", "grade"});
  for (Row& r : first) a.AddRow(std::move(r));
  for (Row& r : second) b.AddRow(std::move(r));
  EXPECT_TRUE(a.MultisetEquals(b))
      << "first:\n" << SortedRowsToString(a)
      << "second:\n" << SortedRowsToString(b);
}

TEST_F(ExecChunkQueryTest, NullComparisonsMatchReference) {
  // Hand-picked 3VL shapes: NULL-valued filters, IS NULL, NULL in
  // aggregates, NULL join keys.
  const char* kQueries[] = {
      "select name from students where name = 'frank'",
      "select student-id from students where name <> 'alice'",
      "select student-id from students where name is null",
      "select student-id from students where type is not null",
      "select student-id, grade from grades where grade >= 3.0",
      "select student-id from grades where grade is null",
      "select count(grade), count(*) from grades",
      "select course-id, min(grade), max(grade) from grades group by course-id",
      "select s.name, g.grade from students s, grades g "
      "where s.name = g.student-id",
      "select student-id from students where name in ('frank', 'alice')",
      "select student-id from students where not (name = 'frank')",
      "select distinct grade from grades",
  };
  for (const char* sql : kQueries) {
    algebra::PlanPtr plan = MustBind(sql);
    auto reference = algebra::ReferenceEval(plan, db_.state());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString()
                                << "\nsql: " << sql;
    auto physical = exec::ExecutePlan(plan, db_.state());
    ASSERT_TRUE(physical.ok()) << physical.status().ToString()
                               << "\nsql: " << sql;
    EXPECT_TRUE(physical.value().MultisetEquals(reference.value()))
        << "mismatch\nsql: " << sql << "\nreference:\n"
        << SortedRowsToString(reference.value()) << "physical:\n"
        << SortedRowsToString(physical.value());
  }
}

// The headline differential property: 1000+ generated queries over the
// NULL-heavy dataset, vectorized executor vs reference evaluator.
TEST_F(ExecChunkQueryTest, DifferentialVsReferenceOnGeneratedQueries) {
  int executed = 0;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    QueryGenerator gen(seed);
    for (int i = 0; i < 40; ++i) {
      std::string sql = gen.NextQuery();
      auto stmt = sql::Parser::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\nsql: " << sql;
      algebra::Binder binder(db_.catalog(), {});
      auto plan = binder.BindSelect(*stmt.value());
      if (!plan.ok()) {
        // The generator can produce ambiguous references; skip those.
        ASSERT_EQ(plan.status().code(), StatusCode::kBindError)
            << plan.status().ToString() << "\nsql: " << sql;
        continue;
      }
      auto reference = algebra::ReferenceEval(plan.value(), db_.state());
      ASSERT_TRUE(reference.ok()) << reference.status().ToString()
                                  << "\nsql: " << sql;
      auto physical = exec::ExecutePlan(plan.value(), db_.state());
      ASSERT_TRUE(physical.ok()) << physical.status().ToString()
                                 << "\nsql: " << sql;
      ASSERT_TRUE(physical.value().MultisetEquals(reference.value()))
          << "engine mismatch\nsql: " << sql << "\nreference:\n"
          << SortedRowsToString(reference.value()) << "physical:\n"
          << SortedRowsToString(physical.value());
      ++executed;
    }
  }
  EXPECT_GE(executed, 1000) << "generator rejected too many queries";
}

// NaN keys: NaN equals NaN and sorts above every number (PostgreSQL's
// rule), at every parallelism. `1e308 * 10` overflows to inf, so the
// difference is NaN.
class NanKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      create table t (a double not null, b varchar not null);
      insert into t values (1e308 * 10 - 1e308 * 10, 'x'),
                           (1e308 * 10 - 1e308 * 10, 'y'), (1.0, 'z');
    )sql")
                    .ok());
  }

  storage::Relation Query(const std::string& sql, size_t parallelism) {
    core::SessionContext ctx("admin");
    ctx.set_mode(core::EnforcementMode::kNone);
    ctx.set_exec_parallelism(parallelism);
    auto r = db_.Execute(sql, ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsql: " << sql;
    return r.ok() ? r.value().relation : storage::Relation();
  }

  static bool IsNan(const Value& v) {
    return v.is_double() && std::isnan(v.double_value());
  }

  core::Database db_;
};

TEST_F(NanKeyTest, GroupByKeepsNanApartFromNumbers) {
  for (size_t p : {1u, 2u, 4u}) {
    storage::Relation rel = Query("select a, count(*) from t group by a", p);
    ASSERT_EQ(rel.num_rows(), 2u) << "parallelism " << p;
    EXPECT_EQ(rel.rows()[0][0], Value::Double(1.0)) << "parallelism " << p;
    EXPECT_EQ(rel.rows()[0][1], Value::Int(1)) << "parallelism " << p;
    EXPECT_TRUE(IsNan(rel.rows()[1][0])) << "parallelism " << p;
    EXPECT_EQ(rel.rows()[1][1], Value::Int(2)) << "parallelism " << p;
  }
}

TEST_F(NanKeyTest, DistinctKeepsOneNan) {
  for (size_t p : {1u, 2u, 4u}) {
    storage::Relation rel = Query("select distinct a from t", p);
    EXPECT_EQ(rel.num_rows(), 2u) << "parallelism " << p;
  }
}

TEST_F(NanKeyTest, OrderByPutsNanLast) {
  for (size_t p : {1u, 2u, 4u}) {
    storage::Relation rel = Query("select a, b from t order by a", p);
    ASSERT_EQ(rel.num_rows(), 3u) << "parallelism " << p;
    EXPECT_EQ(rel.rows()[0][1], Value::String("z")) << "parallelism " << p;
    EXPECT_TRUE(IsNan(rel.rows()[1][0])) << "parallelism " << p;
    EXPECT_TRUE(IsNan(rel.rows()[2][0])) << "parallelism " << p;
  }
}

TEST_F(NanKeyTest, SelfJoinPairsTheNans) {
  for (size_t p : {1u, 2u, 4u}) {
    storage::Relation rel = Query(
        "select t1.b, t2.b from t t1, t t2 where t1.a = t2.a", p);
    EXPECT_EQ(SortedRowsToString(rel),
              "('x', 'x')\n('x', 'y')\n('y', 'x')\n('y', 'y')\n('z', 'z')\n")
        << "parallelism " << p;
  }
  // The filter agrees with the join: a = a holds on the NaN rows too.
  EXPECT_EQ(Query("select count(*) from t where a = a", 1).rows()[0][0],
            Value::Int(3));
}

// The in-place `column op literal` filter against the row engine. Random
// chunks cover every column storage (int, double and string with and
// without NULLs, bool, mixed-kind generic and all-NULL) and the values
// where orders can disagree: NaN, -0.0, +-inf, ints beyond 2^53, the empty
// string and strings sharing a prefix. Each comparison, with the literal
// on either side, must keep exactly the rows of a non-identity starting
// selection on which algebra::EvalPredicate is TRUE, in order.
class FilterKernelTest : public ::testing::Test {
 protected:
  static constexpr int64_t kTwo53 = int64_t{1} << 53;

  static std::vector<Value> Ints() {
    return {Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(7),
            Value::Int(kTwo53),
            Value::Int(kTwo53 + 1),
            Value::Int(-(kTwo53 + 1)),
            Value::Int(std::numeric_limits<int64_t>::max()),
            Value::Int(std::numeric_limits<int64_t>::min())};
  }
  static std::vector<Value> Doubles() {
    double inf = std::numeric_limits<double>::infinity();
    return {Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(1.0),
            Value::Double(7.0),
            Value::Double(-1.5),
            Value::Double(std::nan("")),
            Value::Double(inf),
            Value::Double(-inf),
            Value::Double(9007199254740992.0),   // 2^53
            Value::Double(9007199254740994.0),   // 2^53 + 2
            Value::Double(9223372036854775808.0)};  // 2^63
  }
  static std::vector<Value> Strings() {
    return {Value::String(""),   Value::String("a"),   Value::String("ab"),
            Value::String("abc"), Value::String("s1"), Value::String("s17"),
            Value::String("s2"), Value::String("S1")};
  }
  static std::vector<Value> Bools() {
    return {Value::Bool(false), Value::Bool(true)};
  }
  static std::vector<Value> Concat(std::vector<std::vector<Value>> pools) {
    std::vector<Value> out;
    for (const auto& p : pools) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  struct Spec {
    std::vector<Value> pool;  // empty: every element NULL
    double null_share;
    ColumnVector::Tag tag;
  };

  static std::vector<Spec> Specs() {
    using Tag = ColumnVector::Tag;
    return {{Ints(), 0.0, Tag::kInt},
            {Ints(), 0.25, Tag::kInt},
            {Doubles(), 0.0, Tag::kDouble},
            {Doubles(), 0.25, Tag::kDouble},
            {Strings(), 0.0, Tag::kString},
            {Strings(), 0.25, Tag::kString},
            {Bools(), 0.25, Tag::kBool},
            {Concat({Ints(), Doubles(), Strings(), Bools()}), 0.2,
             Tag::kGeneric},
            {{}, 1.0, Tag::kUntyped}};
  }

  /// Fills chunk_ and rows_ with `n` random rows over Specs().
  void Fill(uint32_t seed, size_t n) {
    std::mt19937 rng(seed);
    std::vector<Spec> specs = Specs();
    chunk_.Reset(specs.size());
    rows_.clear();
    for (size_t r = 0; r < n; ++r) {
      Row row;
      for (const Spec& s : specs) {
        bool null = s.pool.empty() ||
                    std::uniform_real_distribution<double>(0, 1)(rng) <
                        s.null_share;
        row.push_back(null ? Value::Null() : s.pool[rng() % s.pool.size()]);
      }
      chunk_.AppendRow(row);
      rows_.push_back(std::move(row));
    }
    for (size_t c = 0; c < specs.size(); ++c) {
      ASSERT_EQ(chunk_.column(c).tag(), specs[c].tag) << "column " << c;
    }
  }

  /// A random ascending subset of the chunk's rows (never the identity).
  Selection RandomSelection(uint32_t seed) const {
    std::mt19937 rng(seed);
    Selection sel;
    for (uint32_t i = 0; i < chunk_.size(); ++i) {
      if (rng() % 3 != 0) sel.push_back(i);
    }
    return sel;
  }

  /// The rows of `start` on which every predicate is TRUE, by the row
  /// engine.
  Selection Expected(const std::vector<algebra::ScalarPtr>& preds,
                     const Selection& start) const {
    Selection out;
    for (uint32_t i : start) {
      bool keep = true;
      for (const algebra::ScalarPtr& p : preds) {
        Result<bool> t = algebra::EvalPredicate(p, rows_[i]);
        EXPECT_TRUE(t.ok()) << t.status().ToString();
        if (!t.ok() || !t.value()) {
          keep = false;
          break;
        }
      }
      if (keep) out.push_back(i);
    }
    return out;
  }

  /// Every comparison of every column with every literal, either side.
  static std::vector<algebra::ScalarPtr> Predicates(size_t columns) {
    std::vector<Value> literals =
        Concat({{Value::Null()}, Ints(), Doubles(), Strings(), Bools()});
    std::vector<algebra::ScalarPtr> out;
    for (size_t c = 0; c < columns; ++c) {
      for (const Value& v : literals) {
        for (sql::BinOp op : {sql::BinOp::kEq, sql::BinOp::kNe,
                              sql::BinOp::kLt, sql::BinOp::kLe,
                              sql::BinOp::kGt, sql::BinOp::kGe}) {
          algebra::ScalarPtr col = algebra::MakeColumn(static_cast<int>(c));
          algebra::ScalarPtr lit = algebra::MakeLiteralScalar(v);
          out.push_back(algebra::MakeBinaryScalar(op, col, lit));
          out.push_back(algebra::MakeBinaryScalar(op, lit, col));
        }
      }
    }
    return out;
  }

  DataChunk chunk_;
  std::vector<Row> rows_;
};

TEST_F(FilterKernelTest, EveryComparisonMatchesRowEngine) {
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    Fill(seed, 300);
    std::vector<algebra::ScalarPtr> preds = Predicates(chunk_.num_columns());
    for (const algebra::ScalarPtr& p : preds) {
      Selection start = RandomSelection(seed * 7919 + 1);
      Selection got = start;
      ASSERT_TRUE(exec::FilterSelection({p}, chunk_, &got).ok())
          << algebra::ScalarToString(p);
      ASSERT_EQ(got, Expected({p}, start))
          << algebra::ScalarToString(p) << ", seed " << seed;
    }
  }
}

TEST_F(FilterKernelTest, ConjunctListsMatchRowEngine) {
  Fill(11, 400);
  std::vector<algebra::ScalarPtr> preds = Predicates(chunk_.num_columns());
  // A conjunct the in-place path does not take, mixed into some lists.
  algebra::ScalarPtr is_null =
      algebra::MakeUnaryScalar(sql::UnOp::kIsNull, algebra::MakeColumn(1));
  std::mt19937 rng(12);
  for (int k = 0; k < 2000; ++k) {
    std::vector<algebra::ScalarPtr> list = {preds[rng() % preds.size()],
                                            preds[rng() % preds.size()]};
    if (k % 4 == 0) list.insert(list.begin() + rng() % 3, is_null);
    Selection start = RandomSelection(k);
    Selection got = start;
    ASSERT_TRUE(exec::FilterSelection(list, chunk_, &got).ok());
    std::string text;
    for (const algebra::ScalarPtr& p : list) {
      text += algebra::ScalarToString(p) + "; ";
    }
    ASSERT_EQ(got, Expected(list, start)) << text;
  }
}

TEST_F(FilterKernelTest, OutOfRangeSlotKeepsItsError) {
  Fill(5, 50);
  for (const Value& v : {Value::Null(), Value::Int(1), Value::String("a")}) {
    algebra::ScalarPtr col = algebra::MakeColumn(99);
    algebra::ScalarPtr lit = algebra::MakeLiteralScalar(v);
    for (const algebra::ScalarPtr& p :
         {algebra::MakeBinaryScalar(sql::BinOp::kEq, col, lit),
          algebra::MakeBinaryScalar(sql::BinOp::kLt, lit, col)}) {
      Selection sel = RandomSelection(6);
      Status s = exec::FilterSelection({p}, chunk_, &sel);
      EXPECT_EQ(s.code(), StatusCode::kExecutionError)
          << algebra::ScalarToString(p);
    }
  }
}

// Scalar aggregates (no GROUP BY) run the grouped path with one empty key.
// Every aggregate, with and without DISTINCT, over
// empty, all-NULL, int, double and mixed-kind inputs of several chunks must
// render exactly as the reference evaluator's, at parallelism 1 and 2.
// The doubles are multiples of 1/4, so sums are exact in any order.
TEST(ScalarAggregateTest, MatchesReferenceAtEveryParallelism) {
  core::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    create table t_empty (x int);
    create table t_null (x int);
    create table t_int (x int);
    create table t_double (x double);
    create table t_mixed (x double);
  )sql")
                  .ok());
  std::mt19937 rng(77);
  for (int i = 0; i < 2500; ++i) {
    bool null = rng() % 7 == 0;
    int64_t n = static_cast<int64_t>(rng() % 200) - 100;
    double d = static_cast<double>(n) / 4;
    auto pick = [&](Value v) { return null ? Value::Null() : v; };
    db.state().GetMutableTable("t_null")->Insert({Value::Null()});
    db.state().GetMutableTable("t_int")->Insert({pick(Value::Int(n))});
    db.state().GetMutableTable("t_double")->Insert(
        {pick(Value::Double(i % 50 == 0 ? -0.0 : d))});
    // Written straight to storage: ints and doubles in one column.
    db.state().GetMutableTable("t_mixed")->Insert(
        {pick(i % 2 == 0 ? Value::Int(n) : Value::Double(d))});
  }
  ASSERT_EQ(db.state().GetTable("t_mixed")->column(0).tag(),
            ColumnVector::Tag::kGeneric);
  const std::string aggs =
      "count(*), count(x), sum(x), avg(x), min(x), max(x), "
      "count(distinct x), sum(distinct x), avg(distinct x), "
      "min(distinct x), max(distinct x)";
  for (const char* table :
       {"t_empty", "t_null", "t_int", "t_double", "t_mixed"}) {
    const std::string sql = "select " + aggs + " from " + table;
    auto stmt = sql::Parser::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    algebra::Binder binder(db.catalog(), {});
    auto plan = binder.BindSelect(*stmt.value());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto reference = algebra::ReferenceEval(plan.value(), db.state());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference.value().num_rows(), 1u) << sql;
    for (size_t p : {1u, 2u}) {
      core::SessionContext ctx("admin");
      ctx.set_mode(core::EnforcementMode::kNone);
      ctx.set_exec_parallelism(p);
      auto r = db.Execute(sql, ctx);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value().relation.num_rows(), 1u) << sql;
      EXPECT_EQ(RowToString(r.value().relation.rows()[0]),
                RowToString(reference.value().rows()[0]))
          << sql << " at parallelism " << p;
    }
  }
}

// The row finder against FilterSelection over ScanChunk copies (the scan
// path DML and the C3 probes used before it), over the kernel test's value
// pools: NULL, NaN, ±0.0, ints beyond 2^53, int literals against double
// columns, strings sharing prefixes, bools and a mixed generic column. The
// tables hold 2,500 rows with heavy key duplication (written straight to
// storage), with and without a key index; the conjunct lists mix random
// comparisons with repeated and contradictory key equalities and IS NULL.
class RowFinderTest : public FilterKernelTest {
 protected:
  /// Ascending positions passing `conjuncts`, chunk by chunk over copies.
  static std::vector<size_t> Scanned(
      const storage::TableData& t,
      const std::vector<algebra::ScalarPtr>& conjuncts) {
    std::vector<size_t> out;
    DataChunk chunk;
    Selection sel;
    for (size_t start = 0; start < t.num_rows();
         start += DataChunk::kDefaultCapacity) {
      Result<size_t> n =
          t.ScanChunk(start, DataChunk::kDefaultCapacity, &chunk);
      EXPECT_TRUE(n.ok());
      exec::IdentitySelection(*n, &sel);
      Status st = exec::FilterSelection(conjuncts, chunk, &sel);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (uint32_t i : sel) out.push_back(start + i);
    }
    return out;
  }

  static algebra::ScalarPtr Equals(size_t slot, const Value& v, bool flip) {
    algebra::ScalarPtr col = algebra::MakeColumn(static_cast<int>(slot));
    algebra::ScalarPtr lit = algebra::MakeLiteralScalar(v);
    return flip ? algebra::MakeBinaryScalar(sql::BinOp::kEq, lit, col)
                : algebra::MakeBinaryScalar(sql::BinOp::kEq, col, lit);
  }
};

TEST_F(RowFinderTest, DifferentialAgainstChunkedScan) {
  Fill(23, 2500);
  const std::vector<Value> literals =
      Concat({{Value::Null()}, Ints(), Doubles(), Strings(), Bools()});
  const std::vector<algebra::ScalarPtr> preds =
      Predicates(chunk_.num_columns());
  const std::vector<std::vector<size_t>> keys = {
      {}, {0}, {1}, {2, 4}, {7}, {5, 3}};
  std::mt19937 rng(24);
  for (const std::vector<size_t>& key : keys) {
    storage::TableData t(chunk_.num_columns(), key);
    t.InsertRows(rows_);
    size_t indexed = 0;
    for (int k = 0; k < 400; ++k) {
      std::vector<algebra::ScalarPtr> list;
      size_t n = 1 + rng() % 4;
      for (size_t j = 0; j < n; ++j) {
        uint32_t roll = rng() % 10;
        if (!key.empty() && roll < 6) {
          // A key equality: a stored value (a hit), or any literal.
          size_t slot = key[rng() % key.size()];
          Value v = rng() % 2 == 0 ? rows_[rng() % rows_.size()][slot]
                                   : literals[rng() % literals.size()];
          list.push_back(v.is_null() && rng() % 2 == 0
                             ? algebra::MakeUnaryScalar(
                                   sql::UnOp::kIsNull,
                                   algebra::MakeColumn(static_cast<int>(slot)))
                             : Equals(slot, v, rng() % 2 == 0));
        } else {
          list.push_back(preds[rng() % preds.size()]);
        }
      }
      std::string text;
      for (const algebra::ScalarPtr& p : list) {
        text += algebra::ScalarToString(p) + "; ";
      }
      std::vector<size_t> expected = Scanned(t, list);
      common::QueryGuard guard;
      Result<std::vector<size_t>> found =
          exec::FindRows(t, list, std::nullopt, &guard);
      ASSERT_TRUE(found.ok()) << found.status().ToString() << "\n" << text;
      ASSERT_EQ(found.value(), expected) << text;
      if (guard.rows_charged() < t.num_rows()) ++indexed;
      Result<std::vector<size_t>> first = exec::FindRows(t, list, 1, nullptr);
      ASSERT_TRUE(first.ok());
      ASSERT_EQ(first.value(),
                expected.empty() ? std::vector<size_t>{}
                                 : std::vector<size_t>{expected.front()})
          << text;
    }
    // The sweep reaches the index whenever the table has a key.
    if (key.empty()) {
      EXPECT_EQ(indexed, 0u);
    } else {
      EXPECT_GT(indexed, 40u) << "key of " << key.size() << " columns";
    }
  }
}

TEST_F(RowFinderTest, KeyLookupChargesOnlyItsCandidates) {
  Fill(31, 3000);
  storage::TableData t(chunk_.num_columns(), {4});
  t.InsertRows(rows_);
  std::vector<algebra::ScalarPtr> list = {
      Equals(4, Value::String("s17"), /*flip=*/true)};
  common::QueryGuard guard;
  Result<std::vector<size_t>> found =
      exec::FindRows(t, list, std::nullopt, &guard);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), Scanned(t, list));
  EXPECT_EQ(guard.rows_charged(), found.value().size());
  // Without a pinned key the finder charges every row it filters.
  common::QueryGuard scan_guard;
  ASSERT_TRUE(exec::FindRows(t, {Equals(5, Value::String("s17"), false)},
                             std::nullopt, &scan_guard)
                  .ok());
  EXPECT_EQ(scan_guard.rows_charged(), t.num_rows());
}

TEST_F(RowFinderTest, KeyTheIndexCannotAnswerIsScanned) {
  // Double(2^53) equals both stored keys under CompareAt, but the int's
  // hash differs from the double's; the index refuses the probe, so the
  // finder scans every row and still finds both.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  storage::TableData t(2, {0});
  t.InsertRows({{Value::Int(kTwo53 + 1), Value::Int(0)},
                {Value::Double(static_cast<double>(kTwo53)), Value::Int(1)},
                {Value::Int(7), Value::Int(2)}});
  std::vector<algebra::ScalarPtr> list = {
      Equals(0, Value::Double(static_cast<double>(kTwo53)), /*flip=*/true)};
  common::QueryGuard guard;
  Result<std::vector<size_t>> found =
      exec::FindRows(t, list, std::nullopt, &guard);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.value(), Scanned(t, list));
  EXPECT_EQ(found.value(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(guard.rows_charged(), t.num_rows());
}

TEST_F(RowFinderTest, ErrorOutsideTheCandidatesIsNotRaised) {
  // `10 / d = 5 and k = 2`: d is 0 only on the row the key excludes. The
  // scan evaluates the division there and fails; the finder never reads it.
  storage::TableData t(2, {0});
  t.InsertRows({{Value::Int(1), Value::Int(0)}, {Value::Int(2), Value::Int(2)}});
  std::vector<algebra::ScalarPtr> list = {
      algebra::MakeBinaryScalar(
          sql::BinOp::kEq,
          algebra::MakeBinaryScalar(sql::BinOp::kDiv,
                                    algebra::MakeLiteralScalar(Value::Int(10)),
                                    algebra::MakeColumn(1)),
          algebra::MakeLiteralScalar(Value::Int(5))),
      Equals(0, Value::Int(2), /*flip=*/false)};
  Result<std::vector<size_t>> found =
      exec::FindRows(t, list, std::nullopt, nullptr);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.value(), std::vector<size_t>{1});
  storage::TableData plain(2);
  plain.InsertRows({{Value::Int(1), Value::Int(0)}, {Value::Int(2), Value::Int(2)}});
  EXPECT_FALSE(exec::FindRows(plain, list, std::nullopt, nullptr).ok());
}

}  // namespace
}  // namespace fgac
