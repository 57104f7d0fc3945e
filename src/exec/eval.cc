#include "exec/eval.h"

#include <numeric>
#include <utility>

#include "algebra/normalize.h"

namespace fgac::exec {

using algebra::ScalarKind;
using algebra::ScalarPtr;

std::optional<bool> TruthAt(const ColumnVector& c, size_t i) {
  if (c.IsNull(i)) return std::nullopt;
  switch (c.tag()) {
    case ColumnVector::Tag::kBool:
      return c.BoolAt(i);
    case ColumnVector::Tag::kInt:
      return c.IntAt(i) != 0;
    case ColumnVector::Tag::kDouble:
      return c.DoubleAt(i) != 0.0;
    case ColumnVector::Tag::kString:
      return !c.StringAt(i).empty();
    case ColumnVector::Tag::kGeneric:
      return algebra::SqlTruth(c.GenericAt(i));
    case ColumnVector::Tag::kUntyped:
      return std::nullopt;  // unreachable: untyped elements are NULL
  }
  return std::nullopt;
}

void IdentitySelection(size_t n, Selection* sel) {
  sel->resize(n);
  std::iota(sel->begin(), sel->end(), 0u);
}

namespace {

bool PassesCompare(sql::BinOp op, int c) {
  switch (op) {
    case sql::BinOp::kEq:
      return c == 0;
    case sql::BinOp::kNe:
      return c != 0;
    case sql::BinOp::kLt:
      return c < 0;
    case sql::BinOp::kLe:
      return c <= 0;
    case sql::BinOp::kGt:
      return c > 0;
    case sql::BinOp::kGe:
      return c >= 0;
    default:
      return false;
  }
}

/// result[k] = l[k] <op> r[k] with SQL NULL propagation.
Status CompareBatch(sql::BinOp op, const ColumnVector& l, const ColumnVector& r,
                    ColumnVector* out) {
  size_t n = l.size();
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    out->AppendBool(PassesCompare(op, CompareAt(l, i, r, i)));
  }
  return Status::OK();
}

Status LikeBatch(const ColumnVector& l, const ColumnVector& r,
                 ColumnVector* out) {
  size_t n = l.size();
  out->Reserve(n);
  using Tag = ColumnVector::Tag;
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    if (l.KindAt(i) != Value::Kind::kString ||
        r.KindAt(i) != Value::Kind::kString) {
      return Status::ExecutionError("LIKE requires string operands");
    }
    const std::string& text =
        l.tag() == Tag::kString ? l.StringAt(i) : l.GenericAt(i).string_value();
    const std::string& pattern =
        r.tag() == Tag::kString ? r.StringAt(i) : r.GenericAt(i).string_value();
    out->AppendBool(algebra::SqlLike(text, pattern));
  }
  return Status::OK();
}

Status ArithBatch(sql::BinOp op, const ColumnVector& l, const ColumnVector& r,
                  ColumnVector* out) {
  size_t n = l.size();
  out->Reserve(n);
  using Tag = ColumnVector::Tag;
  // Overflow-free int ops on fully-valid int columns take a tight loop
  // (division and modulo keep the general path for the by-zero check).
  if (l.AllValid() && r.AllValid() && l.tag() == Tag::kInt &&
      r.tag() == Tag::kInt &&
      (op == sql::BinOp::kAdd || op == sql::BinOp::kSub ||
       op == sql::BinOp::kMul)) {
    for (size_t i = 0; i < n; ++i) {
      int64_t x = l.IntAt(i), y = r.IntAt(i);
      switch (op) {
        case sql::BinOp::kAdd:
          out->AppendInt(x + y);
          break;
        case sql::BinOp::kSub:
          out->AppendInt(x - y);
          break;
        default:
          out->AppendInt(x * y);
          break;
      }
    }
    return Status::OK();
  }
  if (l.AllValid() && r.AllValid() && l.tag() == Tag::kDouble &&
      r.tag() == Tag::kDouble &&
      (op == sql::BinOp::kAdd || op == sql::BinOp::kSub ||
       op == sql::BinOp::kMul)) {
    for (size_t i = 0; i < n; ++i) {
      double x = l.DoubleAt(i), y = r.DoubleAt(i);
      switch (op) {
        case sql::BinOp::kAdd:
          out->AppendDouble(x + y);
          break;
        case sql::BinOp::kSub:
          out->AppendDouble(x - y);
          break;
        default:
          out->AppendDouble(x * y);
          break;
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    FGAC_ASSIGN_OR_RETURN(
        Value v, algebra::EvalBinaryValues(op, l.GetValue(i), r.GetValue(i)));
    out->Append(v);
  }
  return Status::OK();
}

/// AND/OR with the same short-circuit structure as the row engine: the
/// right operand is evaluated only on rows the left operand left undecided,
/// so side effects (errors) match row-at-a-time execution row-for-row.
Status LogicalBatch(const ScalarPtr& s, const DataChunk& chunk,
                    const Selection& sel, ColumnVector* out) {
  bool is_and = s->bin_op == sql::BinOp::kAnd;
  ColumnVector l;
  FGAC_RETURN_NOT_OK(EvalScalarBatch(s->left, chunk, sel, &l));
  size_t n = sel.size();
  // A row is decided by the left operand when it is FALSE (AND) / TRUE (OR).
  Selection rest;
  rest.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::optional<bool> t = TruthAt(l, i);
    if (t.has_value() && *t != is_and) continue;
    rest.push_back(sel[i]);
  }
  ColumnVector r;
  if (!rest.empty()) {
    FGAC_RETURN_NOT_OK(EvalScalarBatch(s->right, chunk, rest, &r));
  }
  out->Reserve(n);
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    std::optional<bool> ta = TruthAt(l, i);
    if (ta.has_value() && *ta != is_and) {
      out->AppendBool(*ta);
      continue;
    }
    std::optional<bool> tb = TruthAt(r, m);
    ++m;
    std::optional<bool> res = is_and ? SqlAnd(ta, tb) : SqlOr(ta, tb);
    if (res.has_value()) {
      out->AppendBool(*res);
    } else {
      out->AppendNull();
    }
  }
  return Status::OK();
}

Status NegBatch(const ColumnVector& v, ColumnVector* out) {
  size_t n = v.size();
  out->Reserve(n);
  using Tag = ColumnVector::Tag;
  if (v.tag() == Tag::kInt) {
    for (size_t i = 0; i < n; ++i) {
      if (v.IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendInt(-v.IntAt(i));
      }
    }
    return Status::OK();
  }
  if (v.tag() == Tag::kDouble) {
    for (size_t i = 0; i < n; ++i) {
      if (v.IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendDouble(-v.DoubleAt(i));
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    FGAC_ASSIGN_OR_RETURN(
        Value r, algebra::EvalUnaryValue(sql::UnOp::kNeg, v.GetValue(i)));
    out->Append(r);
  }
  return Status::OK();
}

Status InListBatch(const ScalarPtr& s, const DataChunk& chunk,
                   const Selection& sel, ColumnVector* out) {
  ColumnVector operand;
  FGAC_RETURN_NOT_OK(EvalScalarBatch(s->operand, chunk, sel, &operand));
  std::vector<ColumnVector> elems(s->in_list.size());
  for (size_t k = 0; k < s->in_list.size(); ++k) {
    FGAC_RETURN_NOT_OK(EvalScalarBatch(s->in_list[k], chunk, sel, &elems[k]));
  }
  size_t n = sel.size();
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (operand.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    bool saw_null = false, found = false;
    for (const ColumnVector& e : elems) {
      if (e.IsNull(i)) {
        saw_null = true;
        continue;
      }
      if (CompareAt(operand, i, e, i) == 0) {
        found = true;
        break;
      }
    }
    if (found) {
      out->AppendBool(!s->negated);
    } else if (saw_null) {
      out->AppendNull();
    } else {
      out->AppendBool(s->negated);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// In-place filter: `column op literal`
// ---------------------------------------------------------------------------

/// Narrows `sel` in place to the rows whose element at(i) passes
/// `at(i) kOp key`; a NULL element never passes. The selection is
/// compacted as it is read, so the loop allocates nothing.
template <sql::BinOp kOp, typename At, typename Key>
void CompactCompare(const ColumnVector& col, At at, const Key& key,
                    Selection* sel) {
  uint32_t* s = sel->data();
  size_t n = sel->size(), m = 0;
  if (col.AllValid()) {
    for (size_t k = 0; k < n; ++k) {
      uint32_t i = s[k];
      s[m] = i;
      m += PassesCompare(kOp, CompareTyped(at(i), key));
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      uint32_t i = s[k];
      s[m] = i;
      m += col.IsValid(i) && PassesCompare(kOp, CompareTyped(at(i), key));
    }
  }
  sel->resize(m);
}

template <typename At, typename Key>
void CompareInPlace(sql::BinOp op, const ColumnVector& col, At at,
                    const Key& key, Selection* sel) {
  switch (op) {
    case sql::BinOp::kEq:
      return CompactCompare<sql::BinOp::kEq>(col, at, key, sel);
    case sql::BinOp::kNe:
      return CompactCompare<sql::BinOp::kNe>(col, at, key, sel);
    case sql::BinOp::kLt:
      return CompactCompare<sql::BinOp::kLt>(col, at, key, sel);
    case sql::BinOp::kLe:
      return CompactCompare<sql::BinOp::kLe>(col, at, key, sel);
    case sql::BinOp::kGt:
      return CompactCompare<sql::BinOp::kGt>(col, at, key, sel);
    default:
      return CompactCompare<sql::BinOp::kGe>(col, at, key, sel);
  }
}

/// The comparison with its operands swapped: `a op b` iff `b Mirror(op) a`.
/// Exact because CompareTyped is antisymmetric.
sql::BinOp Mirror(sql::BinOp op) {
  switch (op) {
    case sql::BinOp::kLt:
      return sql::BinOp::kGt;
    case sql::BinOp::kLe:
      return sql::BinOp::kGe;
    case sql::BinOp::kGt:
      return sql::BinOp::kLt;
    case sql::BinOp::kGe:
      return sql::BinOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

/// Applies a conjunct of the form `column op literal` or `literal op
/// column` straight to `sel`: the chunk's typed column is read through the
/// selection and compared with the constant, with no operand copy and no
/// bool column. Returns false, leaving `sel` alone, for every other shape
/// and for the pairs CompareAt does not order in typed form (bool, generic
/// and untyped columns, cross-kind pairs) and an out-of-range slot; those
/// take EvalScalarBatch, which yields the same answer or error.
bool FilterInPlace(const ScalarPtr& p, const DataChunk& chunk,
                   Selection* sel) {
  if (p == nullptr || p->kind != ScalarKind::kBinary ||
      p->left == nullptr || p->right == nullptr) {
    return false;
  }
  sql::BinOp op = p->bin_op;
  const algebra::Scalar* column = p->left.get();
  const algebra::Scalar* literal = p->right.get();
  if (column->kind == ScalarKind::kLiteral) {
    std::swap(column, literal);
    op = Mirror(op);
  }
  if (!algebra::IsComparison(op) || column->kind != ScalarKind::kColumn ||
      literal->kind != ScalarKind::kLiteral || column->slot < 0 ||
      static_cast<size_t>(column->slot) >= chunk.num_columns()) {
    return false;
  }
  const ColumnVector& col = chunk.column(column->slot);
  const Value& key = literal->value;
  using Tag = ColumnVector::Tag;
  if (key.is_null()) {
    sel->clear();  // every comparison with NULL is UNKNOWN
  } else if (col.tag() == Tag::kInt && key.is_int()) {
    CompareInPlace(op, col, [&col](size_t i) { return col.IntAt(i); },
                   key.int_value(), sel);
  } else if (col.tag() == Tag::kInt && key.is_double()) {
    CompareInPlace(
        op, col,
        [&col](size_t i) { return static_cast<double>(col.IntAt(i)); },
        key.double_value(), sel);
  } else if (col.tag() == Tag::kDouble && key.is_numeric()) {
    CompareInPlace(op, col, [&col](size_t i) { return col.DoubleAt(i); },
                   key.AsDouble(), sel);
  } else if (col.tag() == Tag::kString && key.is_string()) {
    CompareInPlace(
        op, col,
        [&col](size_t i) -> const std::string& { return col.StringAt(i); },
        key.string_value(), sel);
  } else {
    return false;
  }
  return true;
}

}  // namespace

Status EvalScalarBatch(const ScalarPtr& s, const DataChunk& chunk,
                       const Selection& sel, ColumnVector* out) {
  out->Clear();
  if (s == nullptr) return Status::InvalidArgument("null scalar");
  size_t n = sel.size();
  switch (s->kind) {
    case ScalarKind::kColumn: {
      if (s->slot < 0 ||
          static_cast<size_t>(s->slot) >= chunk.num_columns()) {
        return Status::ExecutionError("slot " + std::to_string(s->slot) +
                                      " out of range");
      }
      out->AppendSelected(chunk.column(s->slot), sel);
      return Status::OK();
    }
    case ScalarKind::kLiteral: {
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) out->Append(s->value);
      return Status::OK();
    }
    case ScalarKind::kAccessParam:
      return Status::InvalidArgument("unbound access parameter $$" + s->param);
    case ScalarKind::kBinary: {
      if (s->bin_op == sql::BinOp::kAnd || s->bin_op == sql::BinOp::kOr) {
        return LogicalBatch(s, chunk, sel, out);
      }
      ColumnVector l, r;
      FGAC_RETURN_NOT_OK(EvalScalarBatch(s->left, chunk, sel, &l));
      FGAC_RETURN_NOT_OK(EvalScalarBatch(s->right, chunk, sel, &r));
      switch (s->bin_op) {
        case sql::BinOp::kEq:
        case sql::BinOp::kNe:
        case sql::BinOp::kLt:
        case sql::BinOp::kLe:
        case sql::BinOp::kGt:
        case sql::BinOp::kGe:
          return CompareBatch(s->bin_op, l, r, out);
        case sql::BinOp::kLike:
          return LikeBatch(l, r, out);
        default:
          return ArithBatch(s->bin_op, l, r, out);
      }
    }
    case ScalarKind::kUnary: {
      ColumnVector v;
      FGAC_RETURN_NOT_OK(EvalScalarBatch(s->operand, chunk, sel, &v));
      switch (s->un_op) {
        case sql::UnOp::kNot: {
          out->Reserve(n);
          for (size_t i = 0; i < n; ++i) {
            std::optional<bool> t = SqlNot(TruthAt(v, i));
            if (t.has_value()) {
              out->AppendBool(*t);
            } else {
              out->AppendNull();
            }
          }
          return Status::OK();
        }
        case sql::UnOp::kNeg:
          return NegBatch(v, out);
        case sql::UnOp::kIsNull: {
          out->Reserve(n);
          for (size_t i = 0; i < n; ++i) out->AppendBool(v.IsNull(i));
          return Status::OK();
        }
        case sql::UnOp::kIsNotNull: {
          out->Reserve(n);
          for (size_t i = 0; i < n; ++i) out->AppendBool(!v.IsNull(i));
          return Status::OK();
        }
      }
      return Status::ExecutionError("unsupported unary operator");
    }
    case ScalarKind::kInList:
      return InListBatch(s, chunk, sel, out);
  }
  return Status::ExecutionError("unsupported scalar kind");
}

Status FilterSelection(const std::vector<ScalarPtr>& predicates,
                       const DataChunk& chunk, Selection* sel) {
  ColumnVector result;
  for (const ScalarPtr& p : predicates) {
    if (sel->empty()) return Status::OK();
    if (FilterInPlace(p, chunk, sel)) continue;
    FGAC_RETURN_NOT_OK(EvalScalarBatch(p, chunk, *sel, &result));
    size_t m = 0;
    for (size_t i = 0; i < sel->size(); ++i) {
      std::optional<bool> t = TruthAt(result, i);
      if (t.has_value() && *t) (*sel)[m++] = (*sel)[i];
    }
    sel->resize(m);
  }
  return Status::OK();
}

Status ProjectChunk(const std::vector<ScalarPtr>& exprs, const DataChunk& in,
                    DataChunk* out) {
  Selection sel;
  IdentitySelection(in.size(), &sel);
  std::vector<ColumnVector> cols(exprs.size());
  for (size_t j = 0; j < exprs.size(); ++j) {
    FGAC_RETURN_NOT_OK(EvalScalarBatch(exprs[j], in, sel, &cols[j]));
  }
  out->AdoptColumns(std::move(cols), in.size());
  return Status::OK();
}

JoinKeys SplitJoinKeys(const std::vector<ScalarPtr>& predicates,
                       size_t left_arity) {
  JoinKeys out;
  for (const ScalarPtr& p : predicates) {
    if (p->kind == algebra::ScalarKind::kBinary &&
        p->bin_op == sql::BinOp::kEq) {
      std::set<int> lslots, rslots;
      algebra::CollectSlots(p->left, &lslots);
      algebra::CollectSlots(p->right, &rslots);
      auto all_left = [&](const std::set<int>& s) {
        return !s.empty() &&
               *s.rbegin() < static_cast<int>(left_arity);
      };
      auto all_right = [&](const std::set<int>& s) {
        return !s.empty() && *s.begin() >= static_cast<int>(left_arity);
      };
      auto shift = [&](const ScalarPtr& s) {
        return algebra::RemapSlots(s, [&](int slot) {
          return slot - static_cast<int>(left_arity);
        });
      };
      if (all_left(lslots) && all_right(rslots)) {
        out.left_keys.push_back(p->left);
        out.right_keys.push_back(shift(p->right));
        continue;
      }
      if (all_left(rslots) && all_right(lslots)) {
        out.left_keys.push_back(p->right);
        out.right_keys.push_back(shift(p->left));
        continue;
      }
    }
    out.residual.push_back(p);
  }
  return out;
}

}  // namespace fgac::exec
