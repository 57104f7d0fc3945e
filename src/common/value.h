#ifndef FGAC_COMMON_VALUE_H_
#define FGAC_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace fgac {

/// A runtime SQL value: NULL, BOOLEAN, BIGINT, DOUBLE or VARCHAR.
///
/// Values are small, copyable, and totally ordered by `Compare` (NULLs sort
/// first; cross-numeric-type comparison promotes to double; NaN equals NaN
/// and sorts above every other number). SQL 3-valued logic is implemented
/// by the SqlEq/SqlLt/... helpers which return std::nullopt for UNKNOWN.
class Value {
 public:
  enum class Kind { kNull = 0, kBool, kInt, kDouble, kString };

  /// Constructs SQL NULL.
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }

  Kind kind() const { return static_cast<Kind>(repr_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const { return std::get<std::string>(repr_); }

  /// Numeric value widened to double (valid only if is_numeric()).
  double AsDouble() const {
    return is_int() ? static_cast<double>(int_value()) : double_value();
  }

  /// Total order used for sorting and container keys: NULL < BOOL < numeric
  /// < STRING; numerics compare by value across int/double, with NaN equal
  /// to NaN and above every other number (CompareDoubles). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Exact equality under the total order (NULL == NULL here, unlike SQL).
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable hash consistent with operator== (int 3 and double 3.0 collide,
  /// as required since they compare equal; so do -0.0 and 0.0, and every
  /// NaN), for every value HashAgreesWithEquality accepts. Built from the
  /// per-kind hashes below.
  size_t Hash() const;

  /// True when every value equal to this one hashes alike. An int meeting
  /// a double compares as a double, so an int the double cannot hold
  /// exactly (which HashInt hashes as an int) and a double of magnitude
  /// 2^53 or more (which such an int can round onto) may hash apart from a
  /// value they equal; a hash lookup of either must compare instead.
  bool HashAgreesWithEquality() const;

  /// SQL literal rendering: NULL, TRUE, 42, 1.5, 'abc' (quotes escaped).
  std::string ToString() const;

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}
  Repr repr_;
};

/// A tuple of values (one table/operator output row).
using Row = std::vector<Value>;

/// Three-way comparison of doubles as a total order, the rule PostgreSQL
/// and DuckDB use: NaN equals NaN and sorts above every other number, and
/// -0.0 equals 0.0.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  bool a_nan = std::isnan(a), b_nan = std::isnan(b);
  return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
}

// The per-kind hashes behind Value::Hash, for callers that hash typed
// arrays without building Values (the executor's key table).
inline size_t HashNull() { return 0x9e3779b97f4a7c15ULL; }
inline size_t HashBool(bool v) { return v ? 0x1234567 : 0x89abcde; }
inline size_t HashDouble(double v) {
  if (std::isnan(v)) return 0x7ff8dead;  // every NaN bit pattern alike
  if (v == 0.0) v = 0.0;                  // -0.0 hashes as 0.0
  return std::hash<double>()(v);
}
/// True when the double nearest v holds it exactly. Values near INT64_MAX
/// round up to 2^63, which does not fit back into int64_t (the cast would
/// be undefined), so the range is tested first.
inline bool IntHashesAsDouble(int64_t v) {
  double d = static_cast<double>(v);
  return d < 9223372036854775808.0 && static_cast<int64_t>(d) == v;
}
inline size_t HashInt(int64_t v) {
  // Hash through double so that equal int/double values collide.
  if (IntHashesAsDouble(v)) return HashDouble(static_cast<double>(v));
  return std::hash<int64_t>()(v);
}
inline size_t HashString(const std::string& v) {
  return std::hash<std::string>()(v);
}

/// Folds one element hash into a running row hash (RowHash's combiner).
inline size_t CombineRowHash(size_t h, size_t element) {
  return h ^ (element + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}
/// Seed of a row hash; a zero-width row hashes to it.
constexpr size_t kRowHashSeed = 0x51ed270b;

/// SQL 3-valued comparison: nullopt if either side is NULL.
std::optional<bool> SqlEq(const Value& a, const Value& b);
std::optional<bool> SqlLt(const Value& a, const Value& b);

/// SQL 3-valued AND/OR/NOT over optional<bool> (nullopt = UNKNOWN).
std::optional<bool> SqlAnd(std::optional<bool> a, std::optional<bool> b);
std::optional<bool> SqlOr(std::optional<bool> a, std::optional<bool> b);
std::optional<bool> SqlNot(std::optional<bool> a);

/// Hash functor for Row, consistent with element-wise Value equality.
struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// Renders a row as (v1, v2, ...).
std::string RowToString(const Row& row);

}  // namespace fgac

#endif  // FGAC_COMMON_VALUE_H_
