#include "algebra/plan.h"

#include <cassert>
#include <set>

namespace fgac::algebra {

namespace {

std::shared_ptr<Plan> NewPlan(PlanKind kind) {
  auto p = std::make_shared<Plan>();
  p->kind = kind;
  return p;
}

}  // namespace

PlanPtr MakeGet(std::string table, std::vector<std::string> columns) {
  auto p = NewPlan(PlanKind::kGet);
  p->table = std::move(table);
  p->get_columns = std::move(columns);
  return p;
}

PlanPtr MakeValues(std::vector<Row> rows, size_t arity) {
  auto p = NewPlan(PlanKind::kValues);
  p->rows = std::move(rows);
  p->values_arity = arity;
  return p;
}

PlanPtr MakeSelect(std::vector<ScalarPtr> predicates, PlanPtr child) {
  if (predicates.empty()) return child;
  auto p = NewPlan(PlanKind::kSelect);
  p->predicates = std::move(predicates);
  p->children.push_back(std::move(child));
  return p;
}

PlanPtr MakeProject(std::vector<ScalarPtr> exprs,
                    std::vector<std::string> output_names, PlanPtr child) {
  auto p = NewPlan(PlanKind::kProject);
  p->exprs = std::move(exprs);
  p->output_names = std::move(output_names);
  p->children.push_back(std::move(child));
  return p;
}

PlanPtr MakeJoin(std::vector<ScalarPtr> predicates, PlanPtr left,
                 PlanPtr right) {
  auto p = NewPlan(PlanKind::kJoin);
  p->predicates = std::move(predicates);
  p->children.push_back(std::move(left));
  p->children.push_back(std::move(right));
  return p;
}

PlanPtr MakeAggregate(std::vector<ScalarPtr> group_by, std::vector<AggExpr> aggs,
                      std::vector<std::string> output_names, PlanPtr child) {
  auto p = NewPlan(PlanKind::kAggregate);
  p->group_by = std::move(group_by);
  p->aggs = std::move(aggs);
  p->output_names = std::move(output_names);
  p->children.push_back(std::move(child));
  return p;
}

PlanPtr MakeDistinct(PlanPtr child) {
  auto p = NewPlan(PlanKind::kDistinct);
  p->children.push_back(std::move(child));
  return p;
}

PlanPtr MakeSort(std::vector<SortItem> items, PlanPtr child) {
  auto p = NewPlan(PlanKind::kSort);
  p->sort_items = std::move(items);
  p->children.push_back(std::move(child));
  return p;
}

PlanPtr MakeLimit(int64_t limit, PlanPtr child) {
  auto p = NewPlan(PlanKind::kLimit);
  p->limit = limit;
  p->children.push_back(std::move(child));
  return p;
}

PlanPtr MakeUnionAll(std::vector<PlanPtr> children) {
  assert(!children.empty());
  if (children.empty()) {
    // A zero-branch union is an empty relation; produce one explicitly
    // instead of a malformed node downstream code would trip over.
    auto empty = NewPlan(PlanKind::kValues);
    empty->values_arity = 0;
    return empty;
  }
  auto p = NewPlan(PlanKind::kUnionAll);
  p->children = std::move(children);
  return p;
}

size_t OutputArity(const Plan& plan) {
  switch (plan.kind) {
    case PlanKind::kGet:
      return plan.get_columns.size();
    case PlanKind::kValues:
      return plan.values_arity;
    case PlanKind::kSelect:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      return OutputArity(*plan.children[0]);
    case PlanKind::kProject:
      return plan.exprs.size();
    case PlanKind::kJoin:
      return OutputArity(*plan.children[0]) + OutputArity(*plan.children[1]);
    case PlanKind::kAggregate:
      return plan.group_by.size() + plan.aggs.size();
    case PlanKind::kUnionAll:
      return OutputArity(*plan.children[0]);
  }
  return 0;
}

std::vector<std::string> OutputNames(const Plan& plan) {
  switch (plan.kind) {
    case PlanKind::kGet:
      return plan.get_columns;
    case PlanKind::kValues: {
      std::vector<std::string> names;
      for (size_t i = 0; i < plan.values_arity; ++i) {
        names.push_back("col" + std::to_string(i));
      }
      return names;
    }
    case PlanKind::kSelect:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kUnionAll:
      return OutputNames(*plan.children[0]);
    case PlanKind::kProject:
    case PlanKind::kAggregate: {
      std::vector<std::string> names = plan.output_names;
      size_t arity = OutputArity(plan);
      while (names.size() < arity) {
        names.push_back("col" + std::to_string(names.size()));
      }
      return names;
    }
    case PlanKind::kJoin: {
      std::vector<std::string> names = OutputNames(*plan.children[0]);
      std::vector<std::string> right = OutputNames(*plan.children[1]);
      names.insert(names.end(), right.begin(), right.end());
      return names;
    }
  }
  return {};
}

namespace {

std::string PredicatesToString(const std::vector<ScalarPtr>& preds) {
  std::string out;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i > 0) out += " AND ";
    out += ScalarToString(preds[i]);
  }
  return out;
}

}  // namespace

std::string PlanToString(const PlanPtr& plan, int indent) {
  if (plan == nullptr) return "";
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad;
  switch (plan->kind) {
    case PlanKind::kGet:
      out += "Get(" + plan->table + ")";
      break;
    case PlanKind::kValues:
      out += "Values(" + std::to_string(plan->rows.size()) + " rows)";
      break;
    case PlanKind::kSelect:
      out += "Select[" + PredicatesToString(plan->predicates) + "]";
      break;
    case PlanKind::kProject: {
      out += "Project[";
      for (size_t i = 0; i < plan->exprs.size(); ++i) {
        if (i > 0) out += ", ";
        out += ScalarToString(plan->exprs[i]);
      }
      out += "]";
      break;
    }
    case PlanKind::kJoin:
      out += plan->predicates.empty()
                 ? "CrossJoin"
                 : "Join[" + PredicatesToString(plan->predicates) + "]";
      break;
    case PlanKind::kAggregate: {
      out += "Aggregate[by: ";
      for (size_t i = 0; i < plan->group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += ScalarToString(plan->group_by[i]);
      }
      out += "; aggs: ";
      for (size_t i = 0; i < plan->aggs.size(); ++i) {
        if (i > 0) out += ", ";
        out += AggFuncName(plan->aggs[i].func);
        if (plan->aggs[i].arg != nullptr) {
          out += plan->aggs[i].distinct ? "(DISTINCT " : "(";
          out += ScalarToString(plan->aggs[i].arg) + ")";
        }
      }
      out += "]";
      break;
    }
    case PlanKind::kDistinct:
      out += "Distinct";
      break;
    case PlanKind::kSort: {
      out += "Sort[";
      for (size_t i = 0; i < plan->sort_items.size(); ++i) {
        if (i > 0) out += ", ";
        out += ScalarToString(plan->sort_items[i].expr);
        if (plan->sort_items[i].descending) out += " DESC";
      }
      out += "]";
      break;
    }
    case PlanKind::kLimit:
      out += "Limit[" + std::to_string(plan->limit) + "]";
      break;
    case PlanKind::kUnionAll:
      out += "UnionAll";
      break;
  }
  out += "\n";
  for (const PlanPtr& child : plan->children) {
    out += PlanToString(child, indent + 1);
  }
  return out;
}

bool PlanHasAccessParam(const PlanPtr& plan) {
  if (plan == nullptr) return false;
  for (const auto& p : plan->predicates) {
    if (HasAccessParam(p)) return true;
  }
  for (const auto& e : plan->exprs) {
    if (HasAccessParam(e)) return true;
  }
  for (const auto& g : plan->group_by) {
    if (HasAccessParam(g)) return true;
  }
  for (const auto& a : plan->aggs) {
    if (HasAccessParam(a.arg)) return true;
  }
  for (const auto& s : plan->sort_items) {
    if (HasAccessParam(s.expr)) return true;
  }
  for (const PlanPtr& child : plan->children) {
    if (PlanHasAccessParam(child)) return true;
  }
  return false;
}

PlanPtr BindPlanParams(const PlanPtr& plan,
                       const std::map<std::string, Value>& bindings) {
  if (plan == nullptr) return nullptr;
  auto bind_scalar = [&bindings](const ScalarPtr& s) {
    ScalarPtr out = s;
    for (const auto& [name, value] : bindings) {
      out = BindAccessParam(out, name, value);
    }
    return out;
  };
  auto copy = std::make_shared<Plan>(*plan);
  for (ScalarPtr& p : copy->predicates) p = bind_scalar(p);
  for (ScalarPtr& x : copy->exprs) x = bind_scalar(x);
  for (ScalarPtr& g : copy->group_by) g = bind_scalar(g);
  for (AggExpr& a : copy->aggs) a.arg = bind_scalar(a.arg);
  for (SortItem& s : copy->sort_items) s.expr = bind_scalar(s.expr);
  for (PlanPtr& c : copy->children) c = BindPlanParams(c, bindings);
  return copy;
}

namespace {

void CollectScalarParams(const ScalarPtr& s, std::set<std::string>* out) {
  if (s == nullptr) return;
  if (s->kind == ScalarKind::kAccessParam) out->insert(s->param);
  CollectScalarParams(s->left, out);
  CollectScalarParams(s->right, out);
  CollectScalarParams(s->operand, out);
  for (const ScalarPtr& e : s->in_list) CollectScalarParams(e, out);
}

void CollectPlanParamsInto(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan == nullptr) return;
  for (const ScalarPtr& p : plan->predicates) CollectScalarParams(p, out);
  for (const ScalarPtr& e : plan->exprs) CollectScalarParams(e, out);
  for (const ScalarPtr& g : plan->group_by) CollectScalarParams(g, out);
  for (const AggExpr& a : plan->aggs) CollectScalarParams(a.arg, out);
  for (const SortItem& s : plan->sort_items) CollectScalarParams(s.expr, out);
  for (const PlanPtr& c : plan->children) CollectPlanParamsInto(c, out);
}

}  // namespace

std::vector<std::string> CollectPlanParams(const PlanPtr& plan) {
  std::set<std::string> names;
  CollectPlanParamsInto(plan, &names);
  return std::vector<std::string>(names.begin(), names.end());
}

}  // namespace fgac::algebra
