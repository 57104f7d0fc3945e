#include "algebra/scalar.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fgac::algebra {

namespace {

std::shared_ptr<Scalar> NewScalar(ScalarKind kind) {
  auto s = std::make_shared<Scalar>();
  s->kind = kind;
  return s;
}

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4));
}

}  // namespace

ScalarPtr MakeColumn(int slot) {
  auto s = NewScalar(ScalarKind::kColumn);
  s->slot = slot;
  return s;
}

ScalarPtr MakeLiteralScalar(Value v) {
  auto s = NewScalar(ScalarKind::kLiteral);
  s->value = std::move(v);
  return s;
}

ScalarPtr MakeAccessParamScalar(std::string name) {
  auto s = NewScalar(ScalarKind::kAccessParam);
  s->param = std::move(name);
  return s;
}

ScalarPtr MakeBinaryScalar(sql::BinOp op, ScalarPtr left, ScalarPtr right) {
  auto s = NewScalar(ScalarKind::kBinary);
  s->bin_op = op;
  s->left = std::move(left);
  s->right = std::move(right);
  return s;
}

ScalarPtr MakeUnaryScalar(sql::UnOp op, ScalarPtr operand) {
  auto s = NewScalar(ScalarKind::kUnary);
  s->un_op = op;
  s->operand = std::move(operand);
  return s;
}

ScalarPtr MakeInListScalar(ScalarPtr operand, std::vector<ScalarPtr> list,
                           bool negated) {
  auto s = NewScalar(ScalarKind::kInList);
  s->operand = std::move(operand);
  s->in_list = std::move(list);
  s->negated = negated;
  return s;
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar: return "count(*)";
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kAvg: return "avg";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
  }
  return "?";
}

namespace {

uint64_t ComputeFingerprint(const ScalarPtr& s) {
  uint64_t h = static_cast<uint64_t>(s->kind) * 0x100000001b3ULL + 0xcbf29ce4ULL;
  switch (s->kind) {
    case ScalarKind::kColumn:
      return HashCombine(h, static_cast<uint64_t>(s->slot) + 1);
    case ScalarKind::kLiteral:
      return HashCombine(h, s->value.Hash());
    case ScalarKind::kAccessParam:
      return HashCombine(h, std::hash<std::string>()(s->param));
    case ScalarKind::kBinary:
      h = HashCombine(h, static_cast<uint64_t>(s->bin_op) + 17);
      h = HashCombine(h, ScalarFingerprint(s->left));
      h = HashCombine(h, ScalarFingerprint(s->right));
      return h;
    case ScalarKind::kUnary:
      h = HashCombine(h, static_cast<uint64_t>(s->un_op) + 31);
      h = HashCombine(h, ScalarFingerprint(s->operand));
      return h;
    case ScalarKind::kInList:
      h = HashCombine(h, s->negated ? 2 : 1);
      h = HashCombine(h, ScalarFingerprint(s->operand));
      for (const auto& e : s->in_list) h = HashCombine(h, ScalarFingerprint(e));
      return h;
  }
  return h;
}

}  // namespace

uint64_t ScalarFingerprint(const ScalarPtr& s) {
  if (s == nullptr) return 0;
  if (s->cached_fingerprint != 0) return s->cached_fingerprint;
  uint64_t fp = ComputeFingerprint(s);
  if (fp == 0) fp = 0x9e3779b97f4a7c15ULL;  // reserve 0 for "uncomputed"
  s->cached_fingerprint = fp;
  return fp;
}

bool ScalarEquals(const ScalarPtr& a, const ScalarPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case ScalarKind::kColumn:
      return a->slot == b->slot;
    case ScalarKind::kLiteral:
      return a->value == b->value;
    case ScalarKind::kAccessParam:
      return a->param == b->param;
    case ScalarKind::kBinary:
      return a->bin_op == b->bin_op && ScalarEquals(a->left, b->left) &&
             ScalarEquals(a->right, b->right);
    case ScalarKind::kUnary:
      return a->un_op == b->un_op && ScalarEquals(a->operand, b->operand);
    case ScalarKind::kInList: {
      if (a->negated != b->negated || a->in_list.size() != b->in_list.size() ||
          !ScalarEquals(a->operand, b->operand)) {
        return false;
      }
      for (size_t i = 0; i < a->in_list.size(); ++i) {
        if (!ScalarEquals(a->in_list[i], b->in_list[i])) return false;
      }
      return true;
    }
  }
  return false;
}

uint64_t AggExprFingerprint(const AggExpr& a) {
  uint64_t h = static_cast<uint64_t>(a.func) * 0x9e3779b1ULL + 7;
  h = HashCombine(h, a.distinct ? 3 : 5);
  h = HashCombine(h, ScalarFingerprint(a.arg));
  return h;
}

bool AggExprEquals(const AggExpr& a, const AggExpr& b) {
  return a.func == b.func && a.distinct == b.distinct &&
         ScalarEquals(a.arg, b.arg);
}

void CollectSlots(const ScalarPtr& s, std::set<int>* out) {
  if (s == nullptr) return;
  if (s->kind == ScalarKind::kColumn) out->insert(s->slot);
  CollectSlots(s->left, out);
  CollectSlots(s->right, out);
  CollectSlots(s->operand, out);
  for (const auto& e : s->in_list) CollectSlots(e, out);
}

ScalarPtr RemapSlots(const ScalarPtr& s, const std::function<int(int)>& remap) {
  if (s == nullptr) return nullptr;
  switch (s->kind) {
    case ScalarKind::kColumn: {
      int target = remap(s->slot);
      assert(target >= 0);
      if (target < 0) {
        // A slot with no image means the rewrite lost track of a column —
        // an optimizer bug. Fail closed: NULL compares false under
        // three-valued logic, so a predicate over it rejects rows rather
        // than exposing ones the policy would hide.
        return MakeLiteralScalar(Value::Null());
      }
      if (target == s->slot) return s;
      return MakeColumn(target);
    }
    case ScalarKind::kLiteral:
    case ScalarKind::kAccessParam:
      return s;
    case ScalarKind::kBinary:
      return MakeBinaryScalar(s->bin_op, RemapSlots(s->left, remap),
                              RemapSlots(s->right, remap));
    case ScalarKind::kUnary:
      return MakeUnaryScalar(s->un_op, RemapSlots(s->operand, remap));
    case ScalarKind::kInList: {
      std::vector<ScalarPtr> list;
      list.reserve(s->in_list.size());
      for (const auto& e : s->in_list) list.push_back(RemapSlots(e, remap));
      return MakeInListScalar(RemapSlots(s->operand, remap), std::move(list),
                              s->negated);
    }
  }
  return s;
}

ScalarPtr SubstituteSlots(const ScalarPtr& s,
                          const std::vector<ScalarPtr>& substitution) {
  if (s == nullptr) return nullptr;
  switch (s->kind) {
    case ScalarKind::kColumn:
      assert(s->slot >= 0 && static_cast<size_t>(s->slot) < substitution.size());
      if (s->slot < 0 || static_cast<size_t>(s->slot) >= substitution.size()) {
        // Out-of-range slot: same fail-closed degrade as RemapSlots.
        return MakeLiteralScalar(Value::Null());
      }
      return substitution[s->slot];
    case ScalarKind::kLiteral:
    case ScalarKind::kAccessParam:
      return s;
    case ScalarKind::kBinary:
      return MakeBinaryScalar(s->bin_op, SubstituteSlots(s->left, substitution),
                              SubstituteSlots(s->right, substitution));
    case ScalarKind::kUnary:
      return MakeUnaryScalar(s->un_op, SubstituteSlots(s->operand, substitution));
    case ScalarKind::kInList: {
      std::vector<ScalarPtr> list;
      list.reserve(s->in_list.size());
      for (const auto& e : s->in_list) {
        list.push_back(SubstituteSlots(e, substitution));
      }
      return MakeInListScalar(SubstituteSlots(s->operand, substitution),
                              std::move(list), s->negated);
    }
  }
  return s;
}

bool HasAccessParam(const ScalarPtr& s) {
  if (s == nullptr) return false;
  if (s->kind == ScalarKind::kAccessParam) return true;
  if (HasAccessParam(s->left) || HasAccessParam(s->right) ||
      HasAccessParam(s->operand)) {
    return true;
  }
  for (const auto& e : s->in_list) {
    if (HasAccessParam(e)) return true;
  }
  return false;
}

ScalarPtr BindAccessParam(const ScalarPtr& s, const std::string& name,
                          const Value& v) {
  if (s == nullptr) return nullptr;
  switch (s->kind) {
    case ScalarKind::kAccessParam:
      if (s->param == name) return MakeLiteralScalar(v);
      return s;
    case ScalarKind::kColumn:
    case ScalarKind::kLiteral:
      return s;
    case ScalarKind::kBinary:
      return MakeBinaryScalar(s->bin_op, BindAccessParam(s->left, name, v),
                              BindAccessParam(s->right, name, v));
    case ScalarKind::kUnary:
      return MakeUnaryScalar(s->un_op, BindAccessParam(s->operand, name, v));
    case ScalarKind::kInList: {
      std::vector<ScalarPtr> list;
      list.reserve(s->in_list.size());
      for (const auto& e : s->in_list) {
        list.push_back(BindAccessParam(e, name, v));
      }
      return MakeInListScalar(BindAccessParam(s->operand, name, v),
                              std::move(list), s->negated);
    }
  }
  return s;
}

namespace {

const char* BinOpText(sql::BinOp op) {
  switch (op) {
    case sql::BinOp::kEq: return "=";
    case sql::BinOp::kNe: return "<>";
    case sql::BinOp::kLt: return "<";
    case sql::BinOp::kLe: return "<=";
    case sql::BinOp::kGt: return ">";
    case sql::BinOp::kGe: return ">=";
    case sql::BinOp::kAnd: return "AND";
    case sql::BinOp::kOr: return "OR";
    case sql::BinOp::kAdd: return "+";
    case sql::BinOp::kSub: return "-";
    case sql::BinOp::kMul: return "*";
    case sql::BinOp::kDiv: return "/";
    case sql::BinOp::kMod: return "%";
    case sql::BinOp::kLike: return "LIKE";
  }
  return "?";
}

}  // namespace

std::string ScalarToString(const ScalarPtr& s,
                           const std::vector<std::string>* slot_names) {
  if (s == nullptr) return "<null>";
  switch (s->kind) {
    case ScalarKind::kColumn:
      if (slot_names != nullptr && s->slot >= 0 &&
          static_cast<size_t>(s->slot) < slot_names->size()) {
        return (*slot_names)[s->slot];
      }
      return std::string("#").append(std::to_string(s->slot));
    case ScalarKind::kLiteral:
      return s->value.ToString();
    case ScalarKind::kAccessParam:
      return "$$" + s->param;
    case ScalarKind::kBinary: {
      std::string out = "(";
      out += ScalarToString(s->left, slot_names);
      out.append(" ").append(BinOpText(s->bin_op)).append(" ");
      out += ScalarToString(s->right, slot_names) + ")";
      return out;
    }
    case ScalarKind::kUnary: {
      // A named operand: `"literal" + <temporary>` inserts at the front,
      // which GCC 12 misreports under -Wrestrict.
      const std::string operand = ScalarToString(s->operand, slot_names);
      switch (s->un_op) {
        case sql::UnOp::kNot:
          return "(NOT " + operand + ")";
        case sql::UnOp::kNeg:
          return "(-" + operand + ")";
        case sql::UnOp::kIsNull:
          return "(" + operand + " IS NULL)";
        case sql::UnOp::kIsNotNull:
          return "(" + operand + " IS NOT NULL)";
      }
      return "?";
    }
    case ScalarKind::kInList: {
      std::string out = "(";
      out += ScalarToString(s->operand, slot_names);
      if (s->negated) out += " NOT";
      out += " IN (";
      for (size_t i = 0; i < s->in_list.size(); ++i) {
        if (i > 0) out += ", ";
        out += ScalarToString(s->in_list[i], slot_names);
      }
      out += "))";
      return out;
    }
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

Result<Value> EvalArith(sql::BinOp op, const Value& a, const Value& b) {
  // NULL propagation and numeric promotion per SQL.
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::ExecutionError("arithmetic on non-numeric value");
  }
  bool both_int = a.is_int() && b.is_int();
  if (both_int) {
    int64_t x = a.int_value(), y = b.int_value();
    switch (op) {
      case sql::BinOp::kAdd: return Value::Int(x + y);
      case sql::BinOp::kSub: return Value::Int(x - y);
      case sql::BinOp::kMul: return Value::Int(x * y);
      case sql::BinOp::kDiv:
        if (y == 0) return Status::ExecutionError("division by zero");
        return Value::Int(x / y);
      case sql::BinOp::kMod:
        if (y == 0) return Status::ExecutionError("modulo by zero");
        return Value::Int(x % y);
      default:
        break;
    }
  } else {
    double x = a.AsDouble(), y = b.AsDouble();
    switch (op) {
      case sql::BinOp::kAdd: return Value::Double(x + y);
      case sql::BinOp::kSub: return Value::Double(x - y);
      case sql::BinOp::kMul: return Value::Double(x * y);
      case sql::BinOp::kDiv:
        if (y == 0.0) return Status::ExecutionError("division by zero");
        return Value::Double(x / y);
      case sql::BinOp::kMod:
        return Status::ExecutionError("modulo on non-integer values");
      default:
        break;
    }
  }
  return Status::ExecutionError("unsupported arithmetic operator");
}

// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern, size_t ti,
               size_t pi) {
  while (pi < pattern.size()) {
    char pc = pattern[pi];
    if (pc == '%') {
      // Collapse consecutive %.
      while (pi < pattern.size() && pattern[pi] == '%') ++pi;
      if (pi == pattern.size()) return true;
      for (size_t k = ti; k <= text.size(); ++k) {
        if (LikeMatch(text, pattern, k, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (pc != '_' && pc != text[ti]) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}

}  // namespace

std::optional<bool> SqlTruth(const Value& v) {
  if (v.is_null()) return std::nullopt;
  if (v.is_bool()) return v.bool_value();
  // Non-boolean used in boolean context: treat nonzero as true.
  if (v.is_numeric()) return v.AsDouble() != 0.0;
  return !v.string_value().empty();
}

Value ValueFromTruth(std::optional<bool> t) {
  if (!t.has_value()) return Value::Null();
  return Value::Bool(*t);
}

bool SqlLike(const std::string& text, const std::string& pattern) {
  return LikeMatch(text, pattern, 0, 0);
}

Result<Value> EvalBinaryValues(sql::BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case sql::BinOp::kAnd:
      return ValueFromTruth(SqlAnd(SqlTruth(a), SqlTruth(b)));
    case sql::BinOp::kOr:
      return ValueFromTruth(SqlOr(SqlTruth(a), SqlTruth(b)));
    case sql::BinOp::kEq:
    case sql::BinOp::kNe:
    case sql::BinOp::kLt:
    case sql::BinOp::kLe:
    case sql::BinOp::kGt:
    case sql::BinOp::kGe: {
      if (a.is_null() || b.is_null()) return Value::Null();
      int c = a.Compare(b);
      bool r = false;
      switch (op) {
        case sql::BinOp::kEq: r = (c == 0); break;
        case sql::BinOp::kNe: r = (c != 0); break;
        case sql::BinOp::kLt: r = (c < 0); break;
        case sql::BinOp::kLe: r = (c <= 0); break;
        case sql::BinOp::kGt: r = (c > 0); break;
        case sql::BinOp::kGe: r = (c >= 0); break;
        default: break;
      }
      return Value::Bool(r);
    }
    case sql::BinOp::kLike: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_string() || !b.is_string()) {
        return Status::ExecutionError("LIKE requires string operands");
      }
      return Value::Bool(SqlLike(a.string_value(), b.string_value()));
    }
    default:
      return EvalArith(op, a, b);
  }
}

Result<Value> EvalUnaryValue(sql::UnOp op, const Value& v) {
  switch (op) {
    case sql::UnOp::kNot:
      return ValueFromTruth(SqlNot(SqlTruth(v)));
    case sql::UnOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.int_value());
      if (v.is_double()) return Value::Double(-v.double_value());
      return Status::ExecutionError("negation of non-numeric value");
    case sql::UnOp::kIsNull:
      return Value::Bool(v.is_null());
    case sql::UnOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::ExecutionError("unsupported unary operator");
}

Result<Value> EvalScalar(const ScalarPtr& s, const Row& row) {
  if (s == nullptr) return Status::InvalidArgument("null scalar");
  switch (s->kind) {
    case ScalarKind::kColumn:
      if (s->slot < 0 || static_cast<size_t>(s->slot) >= row.size()) {
        return Status::ExecutionError("slot " + std::to_string(s->slot) +
                                      " out of range");
      }
      return row[s->slot];
    case ScalarKind::kLiteral:
      return s->value;
    case ScalarKind::kAccessParam:
      return Status::InvalidArgument("unbound access parameter $$" + s->param);
    case ScalarKind::kBinary: {
      switch (s->bin_op) {
        case sql::BinOp::kAnd: {
          FGAC_ASSIGN_OR_RETURN(Value a, EvalScalar(s->left, row));
          std::optional<bool> ta = SqlTruth(a);
          if (ta.has_value() && !*ta) return Value::Bool(false);
          FGAC_ASSIGN_OR_RETURN(Value b, EvalScalar(s->right, row));
          return ValueFromTruth(SqlAnd(ta, SqlTruth(b)));
        }
        case sql::BinOp::kOr: {
          FGAC_ASSIGN_OR_RETURN(Value a, EvalScalar(s->left, row));
          std::optional<bool> ta = SqlTruth(a);
          if (ta.has_value() && *ta) return Value::Bool(true);
          FGAC_ASSIGN_OR_RETURN(Value b, EvalScalar(s->right, row));
          return ValueFromTruth(SqlOr(ta, SqlTruth(b)));
        }
        default: {
          FGAC_ASSIGN_OR_RETURN(Value a, EvalScalar(s->left, row));
          FGAC_ASSIGN_OR_RETURN(Value b, EvalScalar(s->right, row));
          return EvalBinaryValues(s->bin_op, a, b);
        }
      }
    }
    case ScalarKind::kUnary: {
      FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(s->operand, row));
      return EvalUnaryValue(s->un_op, v);
    }
    case ScalarKind::kInList: {
      FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(s->operand, row));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (const auto& e : s->in_list) {
        FGAC_ASSIGN_OR_RETURN(Value ev, EvalScalar(e, row));
        if (ev.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(ev) == 0) return Value::Bool(!s->negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(s->negated);
    }
  }
  return Status::ExecutionError("unsupported scalar kind");
}

Result<bool> EvalPredicate(const ScalarPtr& s, const Row& row) {
  FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(s, row));
  std::optional<bool> t = SqlTruth(v);
  return t.has_value() && *t;
}

// ---------------------------------------------------------------------------
// Aggregate accumulation
// ---------------------------------------------------------------------------

AggAccumulator::AggAccumulator(const AggExpr& agg) : agg_(agg) {}

Status AggAccumulator::Add(const Row& row) {
  if (agg_.func == AggFunc::kCountStar) {
    ++count_;
    return Status::OK();
  }
  FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(agg_.arg, row));
  return AddValue(v);
}

Status AggAccumulator::AddValue(const Value& v) {
  if (agg_.func == AggFunc::kCountStar) {
    ++count_;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();
  if (agg_.distinct) {
    auto it = std::lower_bound(distinct_seen_.begin(), distinct_seen_.end(), v);
    if (it != distinct_seen_.end() && *it == v) return Status::OK();
    distinct_seen_.insert(it, v);
  }
  ++count_;
  switch (agg_.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (!v.is_numeric()) {
        return Status::ExecutionError("SUM/AVG of non-numeric value");
      }
      if (v.is_double() || sum_is_double_) {
        if (!sum_is_double_) {
          sum_double_ = static_cast<double>(sum_int_);
          sum_is_double_ = true;
        }
        sum_double_ += v.AsDouble();
      } else {
        sum_int_ += v.int_value();
      }
      break;
    case AggFunc::kMin:
      if (!any_ || v.Compare(min_) < 0) min_ = v;
      break;
    case AggFunc::kMax:
      if (!any_ || v.Compare(max_) > 0) max_ = v;
      break;
  }
  any_ = true;
  return Status::OK();
}

Status AggAccumulator::Merge(const AggAccumulator& other) {
  if (agg_.distinct) {
    // Replaying through AddValue re-deduplicates against our own seen-set
    // and keeps count/sum consistent with the union.
    for (const Value& v : other.distinct_seen_) {
      FGAC_RETURN_NOT_OK(AddValue(v));
    }
    return Status::OK();
  }
  count_ += other.count_;
  if (other.sum_is_double_ || sum_is_double_) {
    if (!sum_is_double_) {
      sum_double_ = static_cast<double>(sum_int_);
      sum_is_double_ = true;
    }
    sum_double_ += other.sum_is_double_
                       ? other.sum_double_
                       : static_cast<double>(other.sum_int_);
  } else {
    sum_int_ += other.sum_int_;
  }
  if (other.any_) {
    if (!any_ || (!other.min_.is_null() && other.min_.Compare(min_) < 0)) {
      min_ = other.min_;
    }
    if (!any_ || (!other.max_.is_null() && other.max_.Compare(max_) > 0)) {
      max_ = other.max_;
    }
  }
  any_ = any_ || other.any_;
  return Status::OK();
}

Value AggAccumulator::Finish() const {
  switch (agg_.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(count_);
    case AggFunc::kSum:
      if (!any_) return Value::Null();
      return sum_is_double_ ? Value::Double(sum_double_) : Value::Int(sum_int_);
    case AggFunc::kAvg: {
      if (!any_) return Value::Null();
      double total = sum_is_double_ ? sum_double_ : static_cast<double>(sum_int_);
      return Value::Double(total / static_cast<double>(count_));
    }
    case AggFunc::kMin:
      return any_ ? min_ : Value::Null();
    case AggFunc::kMax:
      return any_ ? max_ : Value::Null();
  }
  return Value::Null();
}

}  // namespace fgac::algebra
