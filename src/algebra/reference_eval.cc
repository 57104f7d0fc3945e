#include "algebra/reference_eval.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace fgac::algebra {

namespace {

using storage::Relation;

Result<bool> RowPassesAll(const std::vector<ScalarPtr>& preds, const Row& row) {
  for (const ScalarPtr& p : preds) {
    FGAC_ASSIGN_OR_RETURN(bool pass, EvalPredicate(p, row));
    if (!pass) return false;
  }
  return true;
}

}  // namespace

Result<storage::Relation> ReferenceEval(const PlanPtr& plan,
                                        const storage::DatabaseState& state) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  switch (plan->kind) {
    case PlanKind::kGet: {
      const storage::TableData* data = state.GetTable(plan->table);
      if (data == nullptr) {
        return Status::ExecutionError("no data for table '" + plan->table + "'");
      }
      Relation out(plan->get_columns);
      for (size_t i = 0; i < data->num_rows(); ++i) out.AddRow(data->GetRow(i));
      return out;
    }
    case PlanKind::kValues: {
      Relation out(OutputNames(*plan));
      out.mutable_rows() = plan->rows;
      return out;
    }
    case PlanKind::kSelect: {
      FGAC_ASSIGN_OR_RETURN(Relation in,
                            ReferenceEval(plan->children[0], state));
      Relation out(in.column_names());
      for (const Row& row : in.rows()) {
        FGAC_ASSIGN_OR_RETURN(bool pass, RowPassesAll(plan->predicates, row));
        if (pass) out.AddRow(row);
      }
      return out;
    }
    case PlanKind::kProject: {
      FGAC_ASSIGN_OR_RETURN(Relation in,
                            ReferenceEval(plan->children[0], state));
      Relation out(OutputNames(*plan));
      for (const Row& row : in.rows()) {
        Row projected;
        projected.reserve(plan->exprs.size());
        for (const ScalarPtr& e : plan->exprs) {
          FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(e, row));
          projected.push_back(std::move(v));
        }
        out.AddRow(std::move(projected));
      }
      return out;
    }
    case PlanKind::kJoin: {
      FGAC_ASSIGN_OR_RETURN(Relation left,
                            ReferenceEval(plan->children[0], state));
      FGAC_ASSIGN_OR_RETURN(Relation right,
                            ReferenceEval(plan->children[1], state));
      Relation out(OutputNames(*plan));
      for (const Row& l : left.rows()) {
        for (const Row& r : right.rows()) {
          Row combined = l;
          combined.insert(combined.end(), r.begin(), r.end());
          FGAC_ASSIGN_OR_RETURN(bool pass,
                                RowPassesAll(plan->predicates, combined));
          if (pass) out.AddRow(std::move(combined));
        }
      }
      return out;
    }
    case PlanKind::kAggregate: {
      FGAC_ASSIGN_OR_RETURN(Relation in,
                            ReferenceEval(plan->children[0], state));
      Relation out(OutputNames(*plan));
      // Group rows by the group-by key (Value total order gives stable keys).
      std::map<Row, std::vector<const Row*>> groups;
      for (const Row& row : in.rows()) {
        Row key;
        key.reserve(plan->group_by.size());
        for (const ScalarPtr& g : plan->group_by) {
          FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(g, row));
          key.push_back(std::move(v));
        }
        groups[std::move(key)].push_back(&row);
      }
      // SQL: aggregation without GROUP BY over empty input yields one row.
      if (groups.empty() && plan->group_by.empty()) {
        groups.emplace(Row{}, std::vector<const Row*>{});
      }
      for (const auto& [key, members] : groups) {
        Row result = key;
        for (const AggExpr& agg : plan->aggs) {
          AggAccumulator acc(agg);
          for (const Row* m : members) {
            FGAC_RETURN_NOT_OK(acc.Add(*m));
          }
          result.push_back(acc.Finish());
        }
        out.AddRow(std::move(result));
      }
      return out;
    }
    case PlanKind::kDistinct: {
      FGAC_ASSIGN_OR_RETURN(Relation in,
                            ReferenceEval(plan->children[0], state));
      Relation out(in.column_names());
      std::unordered_map<Row, bool, RowHash, RowEq> seen;
      for (const Row& row : in.rows()) {
        if (seen.emplace(row, true).second) out.AddRow(row);
      }
      return out;
    }
    case PlanKind::kSort: {
      FGAC_ASSIGN_OR_RETURN(Relation in,
                            ReferenceEval(plan->children[0], state));
      // Precompute sort keys.
      std::vector<std::pair<Row, Row>> keyed;  // (key, row)
      keyed.reserve(in.num_rows());
      for (const Row& row : in.rows()) {
        Row key;
        key.reserve(plan->sort_items.size());
        for (const SortItem& it : plan->sort_items) {
          FGAC_ASSIGN_OR_RETURN(Value v, EvalScalar(it.expr, row));
          key.push_back(std::move(v));
        }
        keyed.emplace_back(std::move(key), row);
      }
      const auto& items = plan->sort_items;
      std::stable_sort(keyed.begin(), keyed.end(),
                       [&items](const auto& a, const auto& b) {
                         for (size_t i = 0; i < items.size(); ++i) {
                           int c = a.first[i].Compare(b.first[i]);
                           if (c != 0) return items[i].descending ? c > 0 : c < 0;
                         }
                         return false;
                       });
      Relation out(in.column_names());
      for (auto& [key, row] : keyed) out.AddRow(std::move(row));
      return out;
    }
    case PlanKind::kLimit: {
      FGAC_ASSIGN_OR_RETURN(Relation in,
                            ReferenceEval(plan->children[0], state));
      Relation out(in.column_names());
      int64_t n = std::min<int64_t>(plan->limit,
                                    static_cast<int64_t>(in.num_rows()));
      for (int64_t i = 0; i < n; ++i) out.AddRow(in.rows()[i]);
      return out;
    }
    case PlanKind::kUnionAll: {
      Relation out;
      bool first = true;
      for (const PlanPtr& child : plan->children) {
        FGAC_ASSIGN_OR_RETURN(Relation part, ReferenceEval(child, state));
        if (first) {
          out = Relation(part.column_names());
          first = false;
        }
        for (const Row& row : part.rows()) out.AddRow(row);
      }
      return out;
    }
  }
  return Status::ExecutionError("unsupported plan kind");
}

}  // namespace fgac::algebra
