#ifndef FGAC_EXEC_ROW_FINDER_H_
#define FGAC_EXEC_ROW_FINDER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "algebra/scalar.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "storage/table_data.h"

namespace fgac::exec {

/// Ascending positions of the rows of `table` that pass every conjunct
/// (SQL WHERE semantics; the conjuncts' slots are the table's columns), the
/// first `limit` of them when a limit is given.
///
/// Candidates: when the conjuncts pin every key column of the table's key
/// index — `column = literal` with the literal on either side and non-NULL,
/// or `column IS NULL` — the candidates are the rows the index finds for
/// those values; otherwise, or when the index cannot answer for them
/// (storage::TableData::FindKey), they are all rows.
///
/// All conjuncts then run, left to right, on the candidates through
/// FilterSelection straight over the table's columns, in windows of
/// DataChunk::kDefaultCapacity candidates. Each window is one guard check
/// and a row charge of its size; with a limit the search stops at the
/// window that reaches it. The rows found are therefore exactly a scan's;
/// only the errors can be fewer, since rows outside the candidates are
/// never evaluated.
Result<std::vector<size_t>> FindRows(
    const storage::TableData& table,
    const std::vector<algebra::ScalarPtr>& conjuncts,
    std::optional<size_t> limit, common::QueryGuard* guard);

/// A plan of selections and projections of bare columns, in any order, over
/// one Get — π*(σ*(Get)) and a selection over such a projection alike. It
/// yields a row exactly when some row of `table` passes `conjuncts`: the
/// selections' predicates, innermost first, each remapped through the
/// projections below it to the table's columns.
struct TableFilter {
  std::string table;
  std::vector<algebra::ScalarPtr> conjuncts;
};

/// The TableFilter of `plan`, or nullopt for any other shape (including a
/// slot out of its input's range, which execution reports as an error).
std::optional<TableFilter> AsTableFilter(const algebra::PlanPtr& plan);

}  // namespace fgac::exec

#endif  // FGAC_EXEC_ROW_FINDER_H_
