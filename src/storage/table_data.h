#ifndef FGAC_STORAGE_TABLE_DATA_H_
#define FGAC_STORAGE_TABLE_DATA_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "exec/chunk.h"
#include "storage/key_index.h"

namespace fgac::storage {

/// The data of one base table, stored as one typed column per attribute.
/// Rows keep insertion order; UPDATE overwrites in place and deletion
/// compacts. The schema lives in the catalog; TableData only knows its
/// width and its primary key's columns, and pads a narrow row with NULLs.
/// A table with a key owns a KeyIndex from key to row positions, which
/// every mutator below keeps current.
///
/// Concurrency contract: any number of threads may call the const read API
/// (ScanChunk, GetRow, FindKey, column, num_rows) at once; reads write
/// nothing, so
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
  /// `key_columns` (the primary key's column indices; empty = no key)
  /// selects the columns the key index covers.
  explicit TableData(size_t num_columns, std::vector<size_t> key_columns = {})
      : rows_(num_columns), index_(std::move(key_columns)) {}

  size_t num_columns() const { return rows_.num_columns(); }
  size_t num_rows() const { return rows_.size(); }
  const exec::ColumnVector& column(size_t c) const { return rows_.column(c); }
  /// Every row as one chunk over the stored columns, for filters that read
  /// storage in place (exec::FindRows).
  const exec::DataChunk& rows() const { return rows_; }
  /// Materializes row i.
  Row GetRow(size_t i) const;

  /// The key index's columns; empty when the table has no key.
  const std::vector<size_t>& key_columns() const {
    return index_.key_columns();
  }
  /// Appends to `out`, ascending, the position of every row whose key
  /// equals element `i` of `key` (one column per key column; NULL equals
  /// NULL, 3 equals 3.0) and returns true. Returns false, finding nothing,
  /// when the index cannot answer and the caller must scan: the table has
  /// no key, or a probe element may hash apart from a key it equals (an
  /// int the double cannot hold exactly, a double of magnitude 2^53 or
  /// more; Value::HashAgreesWithEquality).
  bool FindKey(const std::vector<exec::ColumnVector>& key, size_t i,
               exec::Selection* out) const {
    return index_.Find(rows_.columns(), key, i, out);
  }

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
  /// Appends the row to the columns and the key index.
  void Append(const Row& row);

  exec::DataChunk rows_;
  KeyIndex index_;
  uint64_t version_ = 0;
};

}  // namespace fgac::storage

#endif  // FGAC_STORAGE_TABLE_DATA_H_
