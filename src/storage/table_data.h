#ifndef FGAC_STORAGE_TABLE_DATA_H_
#define FGAC_STORAGE_TABLE_DATA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/chunk.h"

namespace fgac::storage {

/// Row storage for one base table. Rows are stored in insertion order;
/// deletion compacts. The schema lives in the catalog; TableData only
/// validates row width.
///
/// Reads go through ScanChunk, which serves batches from a lazily-built
/// columnar snapshot of the rows; any mutation invalidates the snapshot and
/// the next scan rebuilds it in one pass. Read-heavy workloads therefore
/// scan typed column arrays instead of re-pivoting row-major Values on
/// every query.
///
/// Concurrency contract: any number of threads may call the const read API
/// (rows(), ScanChunk, num_rows) concurrently — the snapshot (re)build is an
/// explicit synchronized step (EnsureColumnsBuilt, double-checked under
/// columns_mutex_). Mutations are NOT thread-safe against readers or each
/// other; callers must quiesce scans before writing, exactly as with the
/// operator-tree borrow contract in BuildPhysicalPlan.
///
/// Every mutation goes through a version-bumping member function — there is
/// deliberately no mutable_rows() escape hatch. A reference leaked from such
/// an accessor could be written through *after* the next scan rebuilt the
/// snapshot (leaving the snapshot silently stale), and writes through it
/// would bypass the version counter that cached conditional verdicts depend
/// on.
class TableData {
 public:
  TableData() = default;
  explicit TableData(size_t num_columns) : num_columns_(num_columns) {}

  // Movable (for container use during setup) but not copyable; moves are
  // not thread-safe and must not race scans.
  TableData(TableData&& other) noexcept { MoveFrom(std::move(other)); }
  TableData& operator=(TableData&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }
  TableData(const TableData&) = delete;
  TableData& operator=(const TableData&) = delete;
  ~TableData();

  /// Accounts the columnar snapshot against the process-wide budget: each
  /// rebuild charges the snapshot's approximate footprint (releasing the
  /// previous snapshot's) and a rebuild the tracker denies fails the scan
  /// with kResourceExhausted, leaving the snapshot dirty for retry once
  /// pressure drains. Attach before concurrent scans start.
  void set_memory_tracker(common::MemoryTracker* tracker) {
    tracker_ = tracker;
  }

  size_t num_columns() const { return num_columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// Counts mutations (inserts, updates, deletes, wholesale replacement).
  /// The statement cache keys conditional verdicts on the aggregate of
  /// these counters, so every write path — including bench/test seeding
  /// that bypasses Database — advances it.
  uint64_t version() const { return version_; }

  void Insert(Row row) {
    rows_.push_back(std::move(row));
    Invalidate();
  }

  /// Bulk append with a single reservation (INSERT ... SELECT / seed data).
  void InsertRows(std::vector<Row> rows);

  /// Replaces row `i` wholesale (UPDATE's write phase).
  void UpdateRow(size_t i, Row row);

  /// Replaces the entire contents (state cloning, view materialization).
  void ReplaceAllRows(std::vector<Row> rows);

  /// Chunked scan access path: reshapes `out` to this table's width and
  /// fills it with up to max_rows rows starting at row index `start`.
  /// Returns the number of rows appended (0 past the end). Safe to call
  /// from multiple threads concurrently. Fails only when the lazy columnar
  /// rebuild fails (today: fault injection at "storage.rebuild").
  Result<size_t> ScanChunk(size_t start, size_t max_rows,
                           exec::DataChunk* out) const;

  /// Removes all rows at the given (ascending, deduplicated) indices.
  void EraseIndices(const std::vector<size_t>& ascending_indices);

 private:
  /// Builds the columnar snapshot if (and only if) it is stale. Double
  /// checked: the atomic dirty flag is read outside the mutex, re-read
  /// under it, so concurrent scanners serialize only while a rebuild is
  /// actually pending. On failure the snapshot stays dirty, so a later
  /// scan retries the rebuild.
  Status EnsureColumnsBuilt() const;
  void Invalidate() {
    ++version_;
    columns_dirty_.store(true, std::memory_order_release);
  }
  void MoveFrom(TableData&& other) noexcept;

  size_t num_columns_ = 0;
  std::vector<Row> rows_;
  uint64_t version_ = 0;
  // Columnar snapshot of rows_, rebuilt on first scan after a mutation.
  mutable std::mutex columns_mutex_;
  mutable std::vector<exec::ColumnVector> columns_;
  mutable std::atomic<bool> columns_dirty_{true};
  common::MemoryTracker* tracker_ = nullptr;
  /// Bytes charged to tracker_ for the live snapshot (guarded by
  /// columns_mutex_ like the snapshot itself).
  mutable uint64_t snapshot_charged_ = 0;
};

}  // namespace fgac::storage

#endif  // FGAC_STORAGE_TABLE_DATA_H_
