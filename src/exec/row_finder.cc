#include "exec/row_finder.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>

#include "exec/eval.h"

namespace fgac::exec {

using algebra::PlanKind;
using algebra::ScalarKind;
using algebra::ScalarPtr;

namespace {

/// The value conjunct `p` pins column `slot` to: the literal of `slot =
/// literal` (either side; non-NULL), or NULL for `slot IS NULL`. nullopt
/// when `p` pins nothing there.
std::optional<Value> PinnedValue(const ScalarPtr& p, int slot) {
  if (p == nullptr) return std::nullopt;
  if (p->kind == ScalarKind::kUnary && p->un_op == sql::UnOp::kIsNull) {
    const ScalarPtr& c = p->operand;
    if (c != nullptr && c->kind == ScalarKind::kColumn && c->slot == slot) {
      return Value::Null();
    }
    return std::nullopt;
  }
  if (p->kind != ScalarKind::kBinary || p->bin_op != sql::BinOp::kEq ||
      p->left == nullptr || p->right == nullptr) {
    return std::nullopt;
  }
  const algebra::Scalar* column = p->left.get();
  const algebra::Scalar* literal = p->right.get();
  if (column->kind == ScalarKind::kLiteral) std::swap(column, literal);
  if (column->kind != ScalarKind::kColumn || column->slot != slot ||
      literal->kind != ScalarKind::kLiteral || literal->value.is_null()) {
    return std::nullopt;
  }
  return literal->value;
}

/// The rows the key index finds when `conjuncts` pin every key column of
/// `table`; nullopt when the table has no key, a key column is unpinned or
/// the index cannot answer for the pinned values.
std::optional<Selection> KeyCandidates(const storage::TableData& table,
                                       const std::vector<ScalarPtr>& conjuncts) {
  const std::vector<size_t>& key_columns = table.key_columns();
  if (key_columns.empty()) return std::nullopt;
  std::vector<ColumnVector> key(key_columns.size());
  for (size_t k = 0; k < key_columns.size(); ++k) {
    std::optional<Value> v;
    for (size_t j = 0; j < conjuncts.size() && !v.has_value(); ++j) {
      v = PinnedValue(conjuncts[j], static_cast<int>(key_columns[k]));
    }
    if (!v.has_value()) return std::nullopt;
    key[k].Append(*v);
  }
  Selection out;
  if (!table.FindKey(key, 0, &out)) return std::nullopt;
  return out;
}

}  // namespace

Result<std::vector<size_t>> FindRows(const storage::TableData& table,
                                     const std::vector<ScalarPtr>& conjuncts,
                                     std::optional<size_t> limit,
                                     common::QueryGuard* guard) {
  FGAC_RETURN_NOT_OK(common::GuardCheck(guard));
  std::optional<Selection> keyed = KeyCandidates(table, conjuncts);
  size_t total = keyed.has_value() ? keyed->size() : table.num_rows();
  std::vector<size_t> out;
  Selection window;
  for (size_t start = 0;
       start < total && (!limit.has_value() || out.size() < *limit);
       start += DataChunk::kDefaultCapacity) {
    size_t n = std::min(DataChunk::kDefaultCapacity, total - start);
    window.resize(n);
    if (keyed.has_value()) {
      std::copy_n(keyed->begin() + static_cast<std::ptrdiff_t>(start), n,
                  window.begin());
    } else {
      std::iota(window.begin(), window.end(), static_cast<uint32_t>(start));
    }
    FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard, n));
    FGAC_RETURN_NOT_OK(FilterSelection(conjuncts, table.rows(), &window));
    out.insert(out.end(), window.begin(), window.end());
  }
  if (limit.has_value() && out.size() > *limit) out.resize(*limit);
  return out;
}

std::optional<TableFilter> AsTableFilter(const algebra::PlanPtr& plan) {
  std::vector<const algebra::Plan*> chain;  // top-down
  const algebra::Plan* node = plan.get();
  while (node != nullptr && (node->kind == PlanKind::kProject ||
                             node->kind == PlanKind::kSelect)) {
    if (node->children.size() != 1) return std::nullopt;
    chain.push_back(node);
    node = node->children[0].get();
  }
  if (node == nullptr || node->kind != PlanKind::kGet) return std::nullopt;
  TableFilter out;
  out.table = node->table;
  // Bottom-up: slot s of the current node reads table column columns[s].
  std::vector<int> columns(algebra::OutputArity(*node));
  std::iota(columns.begin(), columns.end(), 0);
  auto in_range = [&columns](int slot) {
    return slot >= 0 && static_cast<size_t>(slot) < columns.size();
  };
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if ((*it)->kind == PlanKind::kSelect) {
      for (const ScalarPtr& p : (*it)->predicates) {
        std::set<int> slots;
        algebra::CollectSlots(p, &slots);
        if (!std::all_of(slots.begin(), slots.end(), in_range)) {
          return std::nullopt;
        }
        out.conjuncts.push_back(algebra::RemapSlots(
            p, [&columns](int slot) { return columns[slot]; }));
      }
      continue;
    }
    std::vector<int> projected;
    for (const ScalarPtr& e : (*it)->exprs) {
      if (e == nullptr || e->kind != ScalarKind::kColumn ||
          !in_range(e->slot)) {
        return std::nullopt;
      }
      projected.push_back(columns[e->slot]);
    }
    columns = std::move(projected);
  }
  return out;
}

}  // namespace fgac::exec
