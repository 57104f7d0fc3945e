#ifndef FGAC_STORAGE_TABLE_DATA_H_
#define FGAC_STORAGE_TABLE_DATA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "exec/chunk.h"

namespace fgac::storage {

/// The data of one base table, stored as one typed column per attribute.
/// Rows keep insertion order; UPDATE overwrites in place and deletion
/// compacts. The schema lives in the catalog; TableData only knows its
/// width, and pads a narrow row with NULLs.
///
/// Concurrency contract: any number of threads may call the const read API
/// (ScanChunk, GetRow, column, num_rows) at once; reads write nothing, so
/// concurrent readers share no mutable state. Mutations are NOT
/// thread-safe against readers or each other; callers must quiesce scans
/// before writing, exactly as with the operator-tree borrow contract in
/// BuildPhysicalPlan.
///
/// Every mutation goes through a version-bumping member function, and
/// columns are exposed read-only: a write that bypassed the version
/// counter would leave cached conditional verdicts stale.
class TableData {
 public:
  explicit TableData(size_t num_columns) : columns_(num_columns) {}

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }
  const exec::ColumnVector& column(size_t c) const { return columns_[c]; }
  /// Materializes row i.
  Row GetRow(size_t i) const;

  /// Counts mutations (inserts, updates, deletes, wholesale replacement).
  /// The statement cache keys conditional verdicts on the aggregate of
  /// these counters, so every write path — including bench/test seeding
  /// that bypasses Database — advances it.
  uint64_t version() const { return version_; }

  void Insert(const Row& row);
  /// Bulk append (INSERT ... VALUES / seed data).
  void InsertRows(const std::vector<Row>& rows);
  /// Overwrites row `i` in place (UPDATE's write phase).
  void UpdateRow(size_t i, const Row& row);
  /// Replaces the entire contents (system-table snapshots, view
  /// materialization).
  void ReplaceAllRows(const std::vector<Row>& rows);
  /// Removes all rows at the given (ascending, deduplicated) indices.
  void EraseIndices(const std::vector<size_t>& ascending_indices);

  /// Chunked scan access path: reshapes `out` to this table's width and
  /// copies in up to max_rows rows starting at row index `start`. Returns
  /// the number of rows copied (0 past the end). Never fails; the Result
  /// keeps the access path's signature uniform with fallible sources.
  Result<size_t> ScanChunk(size_t start, size_t max_rows,
                           exec::DataChunk* out) const;

 private:
  void Append(const Row& row);

  std::vector<exec::ColumnVector> columns_;
  size_t num_rows_ = 0;
  uint64_t version_ = 0;
};

}  // namespace fgac::storage

#endif  // FGAC_STORAGE_TABLE_DATA_H_
