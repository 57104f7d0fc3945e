#include "exec/eval.h"

#include <numeric>

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
  using Tag = ColumnVector::Tag;
  // Fully-valid typed pairs take a mask-free loop.
  if (l.AllValid() && r.AllValid() && l.tag() == Tag::kInt &&
      r.tag() == Tag::kInt) {
    for (size_t i = 0; i < n; ++i) {
      int64_t x = l.IntAt(i), y = r.IntAt(i);
      out->AppendBool(PassesCompare(op, x == y ? 0 : (x < y ? -1 : 1)));
    }
    return Status::OK();
  }
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
    FGAC_RETURN_NOT_OK(EvalScalarBatch(p, chunk, *sel, &result));
    Selection next;
    next.reserve(sel->size());
    for (size_t i = 0; i < sel->size(); ++i) {
      std::optional<bool> t = TruthAt(result, i);
      if (t.has_value() && *t) next.push_back((*sel)[i]);
    }
    *sel = std::move(next);
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
