#include "algebra/normalize.h"

#include <algorithm>
#include <functional>
#include <map>

namespace fgac::algebra {

namespace {

bool IsLiteralTrue(const ScalarPtr& s) {
  return s != nullptr && s->kind == ScalarKind::kLiteral && s->value.is_bool() &&
         s->value.bool_value();
}

bool IsConstant(const ScalarPtr& s) {
  if (s == nullptr) return true;
  switch (s->kind) {
    case ScalarKind::kColumn:
    case ScalarKind::kAccessParam:
      return false;
    case ScalarKind::kLiteral:
      return true;
    case ScalarKind::kBinary:
      return IsConstant(s->left) && IsConstant(s->right);
    case ScalarKind::kUnary:
      return IsConstant(s->operand);
    case ScalarKind::kInList: {
      if (!IsConstant(s->operand)) return false;
      for (const auto& e : s->in_list) {
        if (!IsConstant(e)) return false;
      }
      return true;
    }
  }
  return false;
}

/// Attempts to fold a constant scalar; returns the input on failure (e.g.
/// division by zero must surface at execution time, not silently vanish).
ScalarPtr TryFold(const ScalarPtr& s) {
  if (s->kind == ScalarKind::kLiteral || !IsConstant(s)) return s;
  Row empty;
  Result<Value> v = EvalScalar(s, empty);
  if (!v.ok()) return s;
  return MakeLiteralScalar(std::move(v).value());
}

bool IsCommutative(sql::BinOp op) {
  return op == sql::BinOp::kEq || op == sql::BinOp::kNe ||
         op == sql::BinOp::kAdd || op == sql::BinOp::kMul ||
         op == sql::BinOp::kAnd || op == sql::BinOp::kOr;
}

sql::BinOp NegateComparison(sql::BinOp op) {
  switch (op) {
    case sql::BinOp::kEq: return sql::BinOp::kNe;
    case sql::BinOp::kNe: return sql::BinOp::kEq;
    case sql::BinOp::kLt: return sql::BinOp::kGe;
    case sql::BinOp::kLe: return sql::BinOp::kGt;
    case sql::BinOp::kGt: return sql::BinOp::kLe;
    case sql::BinOp::kGe: return sql::BinOp::kLt;
    default: return op;
  }
}

}  // namespace

bool IsComparison(sql::BinOp op) {
  switch (op) {
    case sql::BinOp::kEq:
    case sql::BinOp::kNe:
    case sql::BinOp::kLt:
    case sql::BinOp::kLe:
    case sql::BinOp::kGt:
    case sql::BinOp::kGe:
      return true;
    default:
      return false;
  }
}

ScalarPtr NormalizeScalar(const ScalarPtr& s) {
  if (s == nullptr) return nullptr;
  switch (s->kind) {
    case ScalarKind::kColumn:
    case ScalarKind::kLiteral:
    case ScalarKind::kAccessParam:
      return s;
    case ScalarKind::kBinary: {
      ScalarPtr left = NormalizeScalar(s->left);
      ScalarPtr right = NormalizeScalar(s->right);
      sql::BinOp op = s->bin_op;
      // Canonicalize > and >= to < and <= with swapped operands.
      if (op == sql::BinOp::kGt) {
        op = sql::BinOp::kLt;
        std::swap(left, right);
      } else if (op == sql::BinOp::kGe) {
        op = sql::BinOp::kLe;
        std::swap(left, right);
      }
      if (IsCommutative(op) &&
          ScalarFingerprint(left) > ScalarFingerprint(right)) {
        std::swap(left, right);
      }
      return TryFold(MakeBinaryScalar(op, std::move(left), std::move(right)));
    }
    case ScalarKind::kUnary: {
      ScalarPtr operand = NormalizeScalar(s->operand);
      if (s->un_op == sql::UnOp::kNot) {
        // NOT NOT x -> x.
        if (operand->kind == ScalarKind::kUnary &&
            operand->un_op == sql::UnOp::kNot) {
          return operand->operand;
        }
        // NOT (a cmp b) -> (a !cmp b).
        if (operand->kind == ScalarKind::kBinary &&
            IsComparison(operand->bin_op)) {
          return NormalizeScalar(MakeBinaryScalar(
              NegateComparison(operand->bin_op), operand->left, operand->right));
        }
        // NOT (x IS NULL) -> x IS NOT NULL.
        if (operand->kind == ScalarKind::kUnary &&
            operand->un_op == sql::UnOp::kIsNull) {
          return MakeUnaryScalar(sql::UnOp::kIsNotNull, operand->operand);
        }
        if (operand->kind == ScalarKind::kUnary &&
            operand->un_op == sql::UnOp::kIsNotNull) {
          return MakeUnaryScalar(sql::UnOp::kIsNull, operand->operand);
        }
        // NOT (x IN list) -> x NOT IN list.
        if (operand->kind == ScalarKind::kInList) {
          return MakeInListScalar(operand->operand, operand->in_list,
                                  !operand->negated);
        }
      }
      return TryFold(MakeUnaryScalar(s->un_op, std::move(operand)));
    }
    case ScalarKind::kInList: {
      ScalarPtr operand = NormalizeScalar(s->operand);
      std::vector<ScalarPtr> list;
      list.reserve(s->in_list.size());
      for (const auto& e : s->in_list) list.push_back(NormalizeScalar(e));
      // Sort list elements by fingerprint (IN is order-insensitive) and
      // remove structural duplicates.
      std::sort(list.begin(), list.end(), [](const ScalarPtr& a,
                                             const ScalarPtr& b) {
        return ScalarFingerprint(a) < ScalarFingerprint(b);
      });
      list.erase(std::unique(list.begin(), list.end(),
                             [](const ScalarPtr& a, const ScalarPtr& b) {
                               return ScalarEquals(a, b);
                             }),
                 list.end());
      // Single-element IN -> equality.
      if (list.size() == 1 && !s->negated) {
        return NormalizeScalar(
            MakeBinaryScalar(sql::BinOp::kEq, operand, list[0]));
      }
      return TryFold(
          MakeInListScalar(std::move(operand), std::move(list), s->negated));
    }
  }
  return s;
}

void FlattenAnd(const ScalarPtr& s, std::vector<ScalarPtr>* out) {
  if (s == nullptr) return;
  if (s->kind == ScalarKind::kBinary && s->bin_op == sql::BinOp::kAnd) {
    FlattenAnd(s->left, out);
    FlattenAnd(s->right, out);
    return;
  }
  out->push_back(s);
}

namespace {

void SortDedup(std::vector<ScalarPtr>* preds) {
  std::sort(preds->begin(), preds->end(),
            [](const ScalarPtr& a, const ScalarPtr& b) {
              uint64_t fa = ScalarFingerprint(a), fb = ScalarFingerprint(b);
              if (fa != fb) return fa < fb;
              return ScalarToString(a) < ScalarToString(b);
            });
  preds->erase(std::unique(preds->begin(), preds->end(),
                           [](const ScalarPtr& a, const ScalarPtr& b) {
                             return ScalarEquals(a, b);
                           }),
               preds->end());
}

}  // namespace

std::vector<ScalarPtr> SplitConjuncts(const ScalarPtr& s) {
  std::vector<ScalarPtr> flat;
  FlattenAnd(s, &flat);
  std::vector<ScalarPtr> out;
  for (const ScalarPtr& c : flat) {
    ScalarPtr n = NormalizeScalar(c);
    // The normalized conjunct may itself be an AND (e.g. after NOT-pushing);
    // re-flatten.
    if (n->kind == ScalarKind::kBinary && n->bin_op == sql::BinOp::kAnd) {
      std::vector<ScalarPtr> nested;
      FlattenAnd(n, &nested);
      for (const ScalarPtr& inner : nested) out.push_back(inner);
    } else if (!IsLiteralTrue(n)) {
      out.push_back(std::move(n));
    }
  }
  SortDedup(&out);
  return out;
}

namespace {

/// Adds the transitive closure of column equalities (and column=constant
/// propagation across equality classes) to a conjunct set. Sound: a=b ∧ b=c
/// can only be satisfied by non-NULL equal values, so a=c (and constants)
/// filter nothing extra. This closure makes implied join predicates
/// explicit so structurally different but equivalent join groupings unify.
void AddEqualityClosure(std::vector<ScalarPtr>* preds) {
  // Union-find over slots.
  std::map<int, int> parent;
  std::function<int(int)> find = [&](int s) {
    auto it = parent.find(s);
    if (it == parent.end()) {
      parent[s] = s;
      return s;
    }
    if (it->second != s) it->second = find(it->second);
    return it->second;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

  std::map<int, Value> constants;  // slot -> pinned literal
  for (const ScalarPtr& p : *preds) {
    if (p->kind != ScalarKind::kBinary || p->bin_op != sql::BinOp::kEq) continue;
    const ScalarPtr& l = p->left;
    const ScalarPtr& r = p->right;
    if (l->kind == ScalarKind::kColumn && r->kind == ScalarKind::kColumn) {
      unite(l->slot, r->slot);
    } else if (l->kind == ScalarKind::kColumn &&
               r->kind == ScalarKind::kLiteral) {
      constants.emplace(l->slot, r->value);
    } else if (r->kind == ScalarKind::kColumn &&
               l->kind == ScalarKind::kLiteral) {
      constants.emplace(r->slot, l->value);
    }
  }
  if (parent.empty()) return;

  // Group slots by class root.
  std::map<int, std::vector<int>> classes;
  for (const auto& [slot, p] : parent) classes[find(slot)].push_back(slot);
  for (auto& [root, slots] : classes) {
    if (slots.size() < 2) continue;
    std::sort(slots.begin(), slots.end());
    // All pairwise equalities.
    for (size_t i = 0; i < slots.size(); ++i) {
      for (size_t j = i + 1; j < slots.size(); ++j) {
        preds->push_back(NormalizeScalar(MakeBinaryScalar(
            sql::BinOp::kEq, MakeColumn(slots[i]), MakeColumn(slots[j]))));
      }
    }
    // Propagate a pinned constant to every member of the class.
    for (int s : slots) {
      auto it = constants.find(s);
      if (it == constants.end()) continue;
      for (int t : slots) {
        preds->push_back(NormalizeScalar(
            MakeBinaryScalar(sql::BinOp::kEq, MakeColumn(t),
                             MakeLiteralScalar(it->second))));
      }
      break;
    }
  }
}

}  // namespace

std::vector<ScalarPtr> NormalizePredicates(std::vector<ScalarPtr> preds) {
  std::vector<ScalarPtr> out;
  for (const ScalarPtr& p : preds) {
    for (ScalarPtr& c : SplitConjuncts(p)) out.push_back(std::move(c));
  }
  AddEqualityClosure(&out);
  SortDedup(&out);
  return out;
}

namespace {

bool IsIdentityProject(const Plan& plan) {
  if (plan.kind != PlanKind::kProject) return false;
  size_t child_arity = OutputArity(*plan.children[0]);
  if (plan.exprs.size() != child_arity) return false;
  for (size_t i = 0; i < plan.exprs.size(); ++i) {
    if (plan.exprs[i]->kind != ScalarKind::kColumn ||
        plan.exprs[i]->slot != static_cast<int>(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace

PlanPtr NormalizePlan(const PlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  std::vector<PlanPtr> children;
  children.reserve(plan->children.size());
  for (const PlanPtr& c : plan->children) children.push_back(NormalizePlan(c));

  switch (plan->kind) {
    case PlanKind::kGet:
    case PlanKind::kValues:
      return plan;
    case PlanKind::kSelect: {
      std::vector<ScalarPtr> preds = NormalizePredicates(plan->predicates);
      PlanPtr child = children[0];
      // Merge Select-over-Select.
      while (child->kind == PlanKind::kSelect) {
        for (const ScalarPtr& p : child->predicates) preds.push_back(p);
        child = child->children[0];
      }
      preds = NormalizePredicates(std::move(preds));
      return MakeSelect(std::move(preds), std::move(child));
    }
    case PlanKind::kProject: {
      std::vector<ScalarPtr> exprs;
      exprs.reserve(plan->exprs.size());
      for (const ScalarPtr& e : plan->exprs) exprs.push_back(NormalizeScalar(e));
      PlanPtr child = children[0];
      // Collapse Project-over-Project by composition.
      while (child->kind == PlanKind::kProject) {
        std::vector<ScalarPtr> composed;
        composed.reserve(exprs.size());
        for (const ScalarPtr& e : exprs) {
          composed.push_back(NormalizeScalar(SubstituteSlots(e, child->exprs)));
        }
        exprs = std::move(composed);
        child = child->children[0];
      }
      auto out = MakeProject(std::move(exprs), plan->output_names, child);
      if (IsIdentityProject(*out)) return child;
      return out;
    }
    case PlanKind::kJoin: {
      std::vector<ScalarPtr> preds = NormalizePredicates(plan->predicates);
      return MakeJoin(std::move(preds), children[0], children[1]);
    }
    case PlanKind::kAggregate: {
      std::vector<ScalarPtr> group_by;
      group_by.reserve(plan->group_by.size());
      for (const ScalarPtr& g : plan->group_by) {
        group_by.push_back(NormalizeScalar(g));
      }
      std::vector<AggExpr> aggs;
      aggs.reserve(plan->aggs.size());
      for (const AggExpr& a : plan->aggs) {
        aggs.push_back({a.func, NormalizeScalar(a.arg), a.distinct});
      }
      return MakeAggregate(std::move(group_by), std::move(aggs),
                           plan->output_names, children[0]);
    }
    case PlanKind::kDistinct: {
      PlanPtr child = children[0];
      // Distinct over Distinct / Aggregate output is a no-op.
      if (child->kind == PlanKind::kDistinct) return child;
      return MakeDistinct(std::move(child));
    }
    case PlanKind::kSort: {
      std::vector<SortItem> items;
      items.reserve(plan->sort_items.size());
      for (const SortItem& it : plan->sort_items) {
        items.push_back({NormalizeScalar(it.expr), it.descending});
      }
      return MakeSort(std::move(items), children[0]);
    }
    case PlanKind::kLimit:
      return MakeLimit(plan->limit, children[0]);
    case PlanKind::kUnionAll:
      return MakeUnionAll(std::move(children));
  }
  return plan;
}

}  // namespace fgac::algebra
