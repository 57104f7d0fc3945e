#include "common/value.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace fgac {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
}

TEST(ValueTest, TotalOrderAcrossKinds) {
  // NULL < BOOL < numeric < STRING.
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::String(""));
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3), Value::Double(3.5));
  EXPECT_LT(Value::Double(2.5), Value::Int(3));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

// Compare must be a total order, NaN included, or sorted containers and
// ORDER BY misbehave: NaN equals NaN and sorts above every other number.
TEST(ValueTest, CompareIsATotalOrderOverSpecialDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> values;
  for (double d : {-inf, -0.0, 0.0, nan, inf}) {
    values.push_back(Value::Double(d));
  }
  values.push_back(Value::Int(1));
  // Other NaN bit patterns: the sign-bit NaN x86 yields for inf - inf, and
  // a signaling NaN with a payload.
  values.push_back(Value::Double(-nan));
  values.push_back(
      Value::Double(std::bit_cast<double>(uint64_t{0x7ff0000000000001})));
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(sign(a.Compare(b)), -sign(b.Compare(a)))
          << a.ToString() << " vs " << b.ToString();
      if (a.Compare(b) == 0) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
      }
      for (const Value& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " <= " << b.ToString()
                                     << " <= " << c.ToString();
        }
      }
    }
  }
  EXPECT_EQ(Value::Double(nan).Compare(Value::Double(-nan)), 0);
  EXPECT_GT(Value::Double(nan).Compare(Value::Double(inf)), 0);
  EXPECT_GT(Value::Double(nan).Compare(Value::Int(1)), 0);
  EXPECT_EQ(Value::Double(-0.0).Compare(Value::Double(0.0)), 0);
  EXPECT_EQ(SqlEq(Value::Double(nan), Value::Double(nan)), true);
}

TEST(ValueTest, HashOfInt64Extremes) {
  // INT64_MIN is -2^63, exact as a double, so it hashes like that double.
  // INT64_MAX rounds to 2^63, which does not convert back to int64_t (the
  // sanitizer build's float-cast-overflow check catches an unguarded
  // cast), so it hashes as an integer.
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(Value::Int(min).Hash(),
            Value::Double(static_cast<double>(min)).Hash());
  EXPECT_EQ(Value::Int(max).Hash(), std::hash<int64_t>()(max));
}

TEST(ValueTest, ToStringRendersSqlLiterals) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Double(1.5).ToString(), "1.5");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::String("o'brien").ToString(), "'o''brien'");
}

TEST(ValueTest, ThreeValuedComparisons) {
  EXPECT_EQ(SqlEq(Value::Null(), Value::Int(1)), std::nullopt);
  EXPECT_EQ(SqlEq(Value::Int(1), Value::Int(1)), std::optional<bool>(true));
  EXPECT_EQ(SqlLt(Value::Int(1), Value::Null()), std::nullopt);
}

TEST(ValueTest, ThreeValuedLogic) {
  std::optional<bool> t = true, f = false, u = std::nullopt;
  EXPECT_EQ(SqlAnd(t, u), u);
  EXPECT_EQ(SqlAnd(f, u), f);
  EXPECT_EQ(SqlOr(t, u), t);
  EXPECT_EQ(SqlOr(f, u), u);
  EXPECT_EQ(SqlNot(u), u);
  EXPECT_EQ(SqlNot(t), f);
}

TEST(ValueTest, RowHashEquality) {
  Row a = {Value::Int(1), Value::String("x")};
  Row b = {Value::Double(1.0), Value::String("x")};
  Row c = {Value::Int(2), Value::String("x")};
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  EXPECT_FALSE(RowEq()(a, c));
}

}  // namespace
}  // namespace fgac
