// Unit tests for the physical operators: iterator protocol (Open/Next,
// re-open), NULL handling in join keys and aggregates, and operator
// composition built by hand (no SQL).

#include "exec/operators.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/reference_eval.h"
#include "exec/eval.h"
#include "storage/database_state.h"

namespace fgac::exec {
namespace {

using algebra::MakeBinaryScalar;
using algebra::MakeColumn;
using algebra::MakeLiteralScalar;
using algebra::ScalarPtr;

Row R(std::initializer_list<int64_t> vals) {
  Row row;
  for (int64_t v : vals) row.push_back(Value::Int(v));
  return row;
}

std::vector<Row> Drain(Operator* op) {
  EXPECT_TRUE(op->Open().ok());
  std::vector<Row> out;
  DataChunk chunk;
  while (true) {
    Result<bool> more = op->Next(chunk);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    // Contract: Next returning true implies a non-empty chunk.
    EXPECT_FALSE(chunk.empty());
    for (size_t i = 0; i < chunk.size(); ++i) out.push_back(chunk.GetRow(i));
  }
  return out;
}

ScalarPtr ColEq(int slot, int64_t v) {
  return MakeBinaryScalar(sql::BinOp::kEq, MakeColumn(slot),
                          MakeLiteralScalar(Value::Int(v)));
}

TEST(OperatorsTest, ScanBorrowsRows) {
  std::vector<Row> rows = {R({1}), R({2}), R({3})};
  ScanOp scan(&rows);
  EXPECT_EQ(Drain(&scan).size(), 3u);
  // Re-open rescans from the start.
  EXPECT_EQ(Drain(&scan).size(), 3u);
}

TEST(OperatorsTest, ValuesOwnsRows) {
  ValuesOp values({R({1, 2}), R({3, 4})});
  auto out = Drain(&values);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][1], Value::Int(4));
}

TEST(OperatorsTest, FilterDropsUnknown) {
  // NULL = 1 is UNKNOWN and must filter out.
  std::vector<Row> rows = {R({1}), {Value::Null()}, R({2})};
  auto scan = std::make_unique<ScanOp>(&rows);
  FilterOp filter({ColEq(0, 1)}, std::move(scan));
  EXPECT_EQ(Drain(&filter).size(), 1u);
}

TEST(OperatorsTest, HashJoinNullKeysNeverMatch) {
  std::vector<Row> left = {R({1}), {Value::Null()}};
  std::vector<Row> right = {R({1}), {Value::Null()}};
  HashJoinOp join({MakeColumn(0)}, {MakeColumn(0)}, {},
                  std::make_unique<ScanOp>(&left),
                  std::make_unique<ScanOp>(&right));
  auto out = Drain(&join);
  // Only 1=1 matches; NULL keys match nothing (SQL equi-join semantics).
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], Value::Int(1));
}

TEST(OperatorsTest, HashJoinDuplicateKeysMultiply) {
  std::vector<Row> left = {R({7}), R({7})};
  std::vector<Row> right = {R({7}), R({7}), R({7})};
  HashJoinOp join({MakeColumn(0)}, {MakeColumn(0)}, {},
                  std::make_unique<ScanOp>(&left),
                  std::make_unique<ScanOp>(&right));
  EXPECT_EQ(Drain(&join).size(), 6u);
}

TEST(OperatorsTest, HashJoinResidualPredicate) {
  std::vector<Row> left = {R({1, 10}), R({1, 20})};
  std::vector<Row> right = {R({1, 15})};
  // Key on col0; residual: left.col1 < right.col1 (slot 3 in combined row).
  HashJoinOp join({MakeColumn(0)}, {MakeColumn(0)},
                  {MakeBinaryScalar(sql::BinOp::kLt, MakeColumn(1),
                                    MakeColumn(3))},
                  std::make_unique<ScanOp>(&left),
                  std::make_unique<ScanOp>(&right));
  auto out = Drain(&join);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1], Value::Int(10));
}

TEST(OperatorsTest, NestedLoopJoinCross) {
  std::vector<Row> left = {R({1}), R({2})};
  std::vector<Row> right = {R({3}), R({4}), R({5})};
  NestedLoopJoinOp join({}, std::make_unique<ScanOp>(&left),
                        std::make_unique<ScanOp>(&right));
  EXPECT_EQ(Drain(&join).size(), 6u);
}

TEST(OperatorsTest, HashAggregateNullsIgnoredByAggs) {
  std::vector<Row> rows = {R({1, 10}), {Value::Int(1), Value::Null()},
                           R({2, 30})};
  std::vector<algebra::AggExpr> aggs = {
      {algebra::AggFunc::kCountStar, nullptr, false},
      {algebra::AggFunc::kCount, MakeColumn(1), false},
      {algebra::AggFunc::kSum, MakeColumn(1), false}};
  HashAggregateOp agg({MakeColumn(0)}, aggs, std::make_unique<ScanOp>(&rows));
  auto out = Drain(&agg);
  ASSERT_EQ(out.size(), 2u);
  // Group 1: count(*)=2, count(col)=1, sum=10.
  EXPECT_EQ(out[0][1], Value::Int(2));
  EXPECT_EQ(out[0][2], Value::Int(1));
  EXPECT_EQ(out[0][3], Value::Int(10));
}

TEST(OperatorsTest, GroupKeysMayBeNull) {
  std::vector<Row> rows = {{Value::Null(), Value::Int(1)},
                           {Value::Null(), Value::Int(2)},
                           {Value::Int(5), Value::Int(3)}};
  std::vector<algebra::AggExpr> aggs = {
      {algebra::AggFunc::kCountStar, nullptr, false}};
  HashAggregateOp agg({MakeColumn(0)}, aggs, std::make_unique<ScanOp>(&rows));
  auto out = Drain(&agg);
  // NULL forms its own group (SQL GROUP BY semantics).
  ASSERT_EQ(out.size(), 2u);
}

TEST(OperatorsTest, DistinctReopenResets) {
  std::vector<Row> rows = {R({1}), R({1}), R({2})};
  DistinctOp distinct(std::make_unique<ScanOp>(&rows));
  EXPECT_EQ(Drain(&distinct).size(), 2u);
  EXPECT_EQ(Drain(&distinct).size(), 2u);  // seen-set must reset on Open
}

TEST(OperatorsTest, SortStableAndDirectional) {
  std::vector<Row> rows = {R({2, 1}), R({1, 2}), R({2, 3}), R({1, 4})};
  SortOp sort({{MakeColumn(0), /*descending=*/true}},
              std::make_unique<ScanOp>(&rows));
  auto out = Drain(&sort);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0][0], Value::Int(2));
  // Stability: equal keys keep input order.
  EXPECT_EQ(out[0][1], Value::Int(1));
  EXPECT_EQ(out[1][1], Value::Int(3));
}

TEST(OperatorsTest, LimitStopsEarlyAndReopens) {
  std::vector<Row> rows = {R({1}), R({2}), R({3})};
  LimitOp limit(2, std::make_unique<ScanOp>(&rows));
  EXPECT_EQ(Drain(&limit).size(), 2u);
  EXPECT_EQ(Drain(&limit).size(), 2u);
}

// Re-Open after *partial* consumption: a blocking operator abandoned
// mid-stream (e.g. by a LIMIT above it, or by a validity probe that only
// needed one chunk) must rebuild its state on the next Open rather than
// resume from a half-drained cursor.
std::vector<Row> PartialThenReopenDrain(Operator* op) {
  EXPECT_TRUE(op->Open().ok());
  DataChunk chunk;
  Result<bool> first = op->Next(chunk);
  EXPECT_TRUE(first.ok());
  // Abandon the stream after at most one chunk and start over.
  return Drain(op);
}

TEST(OperatorsTest, SortReopenAfterPartialConsumption) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3000; ++i) rows.push_back(R({3000 - i}));
  SortOp sort({{MakeColumn(0), /*descending=*/false}},
              std::make_unique<ScanOp>(&rows));
  auto out = PartialThenReopenDrain(&sort);
  ASSERT_EQ(out.size(), rows.size());
  EXPECT_EQ(out[0][0], Value::Int(1));
  EXPECT_EQ(out.back()[0], Value::Int(3000));
}

TEST(OperatorsTest, HashAggregateReopenAfterPartialConsumption) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3000; ++i) rows.push_back(R({i % 1500, i}));
  std::vector<algebra::AggExpr> aggs = {
      {algebra::AggFunc::kCountStar, nullptr, false}};
  HashAggregateOp agg({MakeColumn(0)}, aggs, std::make_unique<ScanOp>(&rows));
  auto out = PartialThenReopenDrain(&agg);
  // Every group must reappear with a fresh (not doubled) count.
  ASSERT_EQ(out.size(), 1500u);
  for (const Row& row : out) EXPECT_EQ(row[1], Value::Int(2));
}

TEST(OperatorsTest, HashJoinReopenAfterPartialConsumption) {
  std::vector<Row> left, right;
  for (int64_t i = 0; i < 3000; ++i) left.push_back(R({i % 100}));
  for (int64_t i = 0; i < 100; ++i) right.push_back(R({i}));
  HashJoinOp join({MakeColumn(0)}, {MakeColumn(0)}, {},
                  std::make_unique<ScanOp>(&left),
                  std::make_unique<ScanOp>(&right));
  auto out = PartialThenReopenDrain(&join);
  // Each left row matches exactly one right row; the rebuilt hash table
  // must not retain stale or duplicated build-side entries.
  EXPECT_EQ(out.size(), 3000u);
}

TEST(OperatorsTest, DistinctReopenAfterPartialConsumption) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3000; ++i) rows.push_back(R({i % 2000}));
  DistinctOp distinct(std::make_unique<ScanOp>(&rows));
  EXPECT_EQ(PartialThenReopenDrain(&distinct).size(), 2000u);
}

TEST(OperatorsTest, UnionAllConcatenates) {
  std::vector<Row> a = {R({1})}, b = {R({2}), R({3})};
  std::vector<OperatorPtr> children;
  children.push_back(std::make_unique<ScanOp>(&a));
  children.push_back(std::make_unique<ScanOp>(&b));
  UnionAllOp u(std::move(children));
  EXPECT_EQ(Drain(&u).size(), 3u);
}

// ---------------------------------------------------------------------------
// The key table behind GROUP BY, DISTINCT and the hash join: each case runs
// the three operators over VALUES inputs and compares them, row for row
// and in order, with the reference evaluator. GROUP BY output is sorted by
// key, DISTINCT keeps first occurrences, and a join emits probe order x
// build order.
// ---------------------------------------------------------------------------

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  return out;
}

std::vector<Row> Reference(const algebra::PlanPtr& plan) {
  storage::DatabaseState empty;
  auto rel = algebra::ReferenceEval(plan, empty);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return rel.ok() ? rel.value().rows() : std::vector<Row>{};
}

const std::vector<algebra::AggExpr>& CountStar() {
  static const std::vector<algebra::AggExpr> aggs = {
      {algebra::AggFunc::kCountStar, nullptr, false}};
  return aggs;
}

// GROUP BY column 0 with count(*), against the reference.
std::vector<Row> ExpectGroupByMatchesReference(const std::vector<Row>& rows,
                                               size_t arity) {
  HashAggregateOp agg({MakeColumn(0)}, CountStar(),
                      std::make_unique<ValuesOp>(rows));
  std::vector<Row> out = Drain(&agg);
  algebra::PlanPtr in = algebra::MakeValues(rows, arity);
  algebra::PlanPtr plan =
      algebra::MakeAggregate({MakeColumn(0)}, CountStar(), {"k", "n"}, in);
  EXPECT_EQ(Render(out), Render(Reference(plan)));
  return out;
}

// DISTINCT over every column, against the reference.
std::vector<Row> ExpectDistinctMatchesReference(const std::vector<Row>& rows,
                                                size_t arity) {
  DistinctOp distinct(std::make_unique<ValuesOp>(rows));
  std::vector<Row> out = Drain(&distinct);
  algebra::PlanPtr in = algebra::MakeValues(rows, arity);
  EXPECT_EQ(Render(out), Render(Reference(algebra::MakeDistinct(in))));
  return out;
}

// left JOIN right ON left.0 = right.0, against the reference.
std::vector<Row> ExpectJoinMatchesReference(const std::vector<Row>& left,
                                            const std::vector<Row>& right,
                                            size_t arity) {
  HashJoinOp join({MakeColumn(0)}, {MakeColumn(0)}, {},
                  std::make_unique<ValuesOp>(left),
                  std::make_unique<ValuesOp>(right));
  std::vector<Row> out = Drain(&join);
  ScalarPtr on = MakeBinaryScalar(sql::BinOp::kEq, MakeColumn(0),
                                  MakeColumn(static_cast<int>(arity)));
  algebra::PlanPtr l = algebra::MakeValues(left, arity);
  algebra::PlanPtr r = algebra::MakeValues(right, arity);
  EXPECT_EQ(Render(out), Render(Reference(algebra::MakeJoin({on}, l, r))));
  return out;
}

TEST(KeyTableTest, IntAndDoubleKeysAreOneKey) {
  // One generic column holding both kinds.
  std::vector<Row> mixed = {{Value::Int(3)}, {Value::Double(3.0)},
                            {Value::Int(4)}};
  std::vector<Row> groups = ExpectGroupByMatchesReference(mixed, 1);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0][1], Value::Int(2));
  EXPECT_EQ(ExpectDistinctMatchesReference(mixed, 1).size(), 2u);
  EXPECT_EQ(ExpectJoinMatchesReference(mixed, mixed, 1).size(), 5u);

  // Typed columns: an int probe column meets a double build column, and a
  // GROUP BY whose first chunk is ints and second chunk doubles.
  std::vector<Row> ints = {{Value::Int(3)}, {Value::Int(5)}};
  std::vector<Row> doubles = {{Value::Double(3.0)}, {Value::Double(4.0)}};
  EXPECT_EQ(ExpectJoinMatchesReference(ints, doubles, 1).size(), 1u);
  const int64_t capacity = DataChunk::kDefaultCapacity;
  std::vector<Row> chunked;
  for (int64_t i = 0; i < 2 * capacity; ++i) {
    double d = static_cast<double>(i % 10);
    chunked.push_back({i < capacity ? Value::Int(i % 10) : Value::Double(d)});
  }
  EXPECT_EQ(ExpectGroupByMatchesReference(chunked, 1).size(), 10u);
  EXPECT_EQ(ExpectDistinctMatchesReference(chunked, 1).size(), 10u);
}

TEST(KeyTableTest, NegativeZeroEqualsZero) {
  std::vector<Row> rows = {{Value::Double(-0.0)}, {Value::Double(0.0)}};
  std::vector<Row> groups = ExpectGroupByMatchesReference(rows, 1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0][1], Value::Int(2));
  EXPECT_EQ(ExpectDistinctMatchesReference(rows, 1).size(), 1u);
  EXPECT_EQ(ExpectJoinMatchesReference(rows, rows, 1).size(), 4u);
}

TEST(KeyTableTest, NullKeysGroupFirstAndNeverJoin) {
  std::vector<Row> rows = {{Value::Int(2), Value::Int(0)},
                           {Value::Null(), Value::Int(1)},
                           {Value::Int(1), Value::Int(2)},
                           {Value::Null(), Value::Int(3)}};
  std::vector<Row> groups = ExpectGroupByMatchesReference(rows, 2);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_TRUE(groups[0][0].is_null());
  EXPECT_EQ(groups[0][1], Value::Int(2));

  std::vector<Row> keys = {{Value::Int(2)}, {Value::Null()}, {Value::Int(1)},
                           {Value::Null()}};
  std::vector<Row> distinct = ExpectDistinctMatchesReference(keys, 1);
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_TRUE(distinct[1][0].is_null());

  std::vector<Row> joined = ExpectJoinMatchesReference(rows, rows, 2);
  ASSERT_EQ(joined.size(), 2u);
  for (const Row& r : joined) EXPECT_FALSE(r[0].is_null());
}

TEST(KeyTableTest, GenericColumnMixingKinds) {
  const std::vector<Value> kinds = {Value::Int(1), Value::String("a"),
                                    Value::Bool(true), Value::Bool(false),
                                    Value::Null()};
  std::vector<Row> rows;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Value& v : kinds) rows.push_back({v});
  }
  rows.push_back({Value::Double(1.0)});  // the same key as Int(1)
  rows.push_back({Value::String("1")});
  EXPECT_EQ(ExpectGroupByMatchesReference(rows, 1).size(), 6u);
  EXPECT_EQ(ExpectDistinctMatchesReference(rows, 1).size(), 6u);
  ExpectJoinMatchesReference(rows, rows, 1);
}

TEST(KeyTableTest, ManyDistinctKeysGrowTheTable) {
  constexpr int64_t kKeys = 100000;
  std::vector<Row> rows;
  rows.reserve(kKeys);
  // A permutation of 0..kKeys-1 (7919 is prime, coprime to kKeys).
  for (int64_t i = 0; i < kKeys; ++i) {
    rows.push_back({Value::Int(i * 7919 % kKeys), Value::Int(i)});
  }
  std::vector<Row> groups = ExpectGroupByMatchesReference(rows, 2);
  ASSERT_EQ(groups.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(groups.back()[0], Value::Int(kKeys - 1));
  EXPECT_EQ(ExpectDistinctMatchesReference(rows, 2).size(),
            static_cast<size_t>(kKeys));
  // The reference join is quadratic, so check this one directly: every
  // probe row meets exactly its own build row, in probe order.
  HashJoinOp join({MakeColumn(0)}, {MakeColumn(0)}, {},
                  std::make_unique<ValuesOp>(rows),
                  std::make_unique<ValuesOp>(rows));
  std::vector<Row> joined = Drain(&join);
  ASSERT_EQ(joined.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(joined[i],
              (Row{rows[i][0], rows[i][1], rows[i][0], rows[i][1]}))
        << "row " << i;
  }
}

TEST(KeyTableTest, GroupByWithoutAggregatesListsSortedKeys) {
  std::vector<Row> rows = {R({2}), R({1}), R({2})};
  HashAggregateOp agg({MakeColumn(0)}, {}, std::make_unique<ValuesOp>(rows));
  std::vector<Row> out = Drain(&agg);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], R({1}));
  EXPECT_EQ(out[1], R({2}));
}

TEST(KeyTableTest, DuplicateBuildKeysKeepProbeTimesBuildOrder) {
  std::vector<Row> left = {R({7, 0}), R({8, 1}), R({7, 2})};
  std::vector<Row> right = {R({7, 10}), R({8, 11}), R({7, 12}), R({7, 13})};
  std::vector<Row> joined = ExpectJoinMatchesReference(left, right, 2);
  ASSERT_EQ(joined.size(), 7u);
  EXPECT_EQ(joined[0], R({7, 0, 7, 10}));
  EXPECT_EQ(joined[1], R({7, 0, 7, 12}));
  EXPECT_EQ(joined[2], R({7, 0, 7, 13}));
  EXPECT_EQ(joined[3], R({8, 1, 8, 11}));
}

TEST(SplitJoinKeysTest, ClassifiesConjuncts) {
  // Combined space: left arity 2, right arity 2 (slots 2..3).
  std::vector<ScalarPtr> preds = {
      MakeBinaryScalar(sql::BinOp::kEq, MakeColumn(0), MakeColumn(2)),
      MakeBinaryScalar(sql::BinOp::kLt, MakeColumn(1), MakeColumn(3)),
      ColEq(1, 5),
  };
  JoinKeys keys = SplitJoinKeys(preds, 2);
  EXPECT_EQ(keys.left_keys.size(), 1u);
  EXPECT_EQ(keys.right_keys.size(), 1u);
  EXPECT_EQ(keys.residual.size(), 2u);
  // The right key is shifted into right-local slots.
  EXPECT_EQ(keys.right_keys[0]->slot, 0);
}

TEST(SplitJoinKeysTest, ReversedEquiPair) {
  std::vector<ScalarPtr> preds = {
      MakeBinaryScalar(sql::BinOp::kEq, MakeColumn(3), MakeColumn(1))};
  JoinKeys keys = SplitJoinKeys(preds, 2);
  ASSERT_EQ(keys.left_keys.size(), 1u);
  EXPECT_EQ(keys.left_keys[0]->slot, 1);
  EXPECT_EQ(keys.right_keys[0]->slot, 1);
}

}  // namespace
}  // namespace fgac::exec
