#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace fgac {

namespace {

// Rank in the total order. Numeric kinds share a rank so that 3 == 3.0.
int KindRank(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull:
      return 0;
    case Value::Kind::kBool:
      return 1;
    case Value::Kind::kInt:
    case Value::Kind::kDouble:
      return 2;
    case Value::Kind::kString:
      return 3;
  }
  return 4;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int ra = KindRank(kind()), rb = KindRank(other.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (kind()) {
    case Kind::kNull:
      return 0;
    case Kind::kBool: {
      bool a = bool_value(), b = other.bool_value();
      if (a == b) return 0;
      return a < b ? -1 : 1;
    }
    case Kind::kInt:
    case Kind::kDouble: {
      if (is_int() && other.is_int()) {
        int64_t a = int_value(), b = other.int_value();
        if (a == b) return 0;
        return a < b ? -1 : 1;
      }
      return CompareDoubles(AsDouble(), other.AsDouble());
    }
    case Kind::kString:
      return string_value().compare(other.string_value());
  }
  return 0;
}

bool Value::HashAgreesWithEquality() const {
  if (is_int()) return IntHashesAsDouble(int_value());
  // Below 2^53 in magnitude, every int equal to a double is held exactly.
  if (is_double()) return !(std::fabs(double_value()) >= 9007199254740992.0);
  return true;
}

size_t Value::Hash() const {
  switch (kind()) {
    case Kind::kNull:
      return HashNull();
    case Kind::kBool:
      return HashBool(bool_value());
    case Kind::kInt:
      return HashInt(int_value());
    case Kind::kDouble:
      return HashDouble(double_value());
    case Kind::kString:
      return HashString(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "NULL";
    case Kind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case Kind::kInt:
      return std::to_string(int_value());
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", double_value());
      std::string s(buf);
      // Keep a trailing ".0" so doubles round-trip as doubles.
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Kind::kString: {
      std::string out = "'";
      for (char c : string_value()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
  return "?";
}

std::optional<bool> SqlEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  return a.Compare(b) == 0;
}

std::optional<bool> SqlLt(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  return a.Compare(b) < 0;
}

std::optional<bool> SqlAnd(std::optional<bool> a, std::optional<bool> b) {
  if (a.has_value() && !*a) return false;
  if (b.has_value() && !*b) return false;
  if (a.has_value() && b.has_value()) return true;
  return std::nullopt;
}

std::optional<bool> SqlOr(std::optional<bool> a, std::optional<bool> b) {
  if (a.has_value() && *a) return true;
  if (b.has_value() && *b) return true;
  if (a.has_value() && b.has_value()) return false;
  return std::nullopt;
}

std::optional<bool> SqlNot(std::optional<bool> a) {
  if (!a.has_value()) return std::nullopt;
  return !*a;
}

size_t RowHash::operator()(const Row& row) const {
  size_t h = kRowHashSeed;
  for (const Value& v : row) h = CombineRowHash(h, v.Hash());
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace fgac
