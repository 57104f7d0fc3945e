#ifndef FGAC_STORAGE_DATABASE_STATE_H_
#define FGAC_STORAGE_DATABASE_STATE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "storage/table_data.h"

namespace fgac::storage {

/// The data of every base table — one "database state" in the paper's
/// terminology (Definitions 4.1–4.3). Cloneable so tests can construct
/// PA-equivalent states by mutating tuples invisible to the authorization
/// views and re-running queries.
class DatabaseState {
 public:
  DatabaseState() = default;
  DatabaseState(const DatabaseState&) = delete;
  DatabaseState& operator=(const DatabaseState&) = delete;
  DatabaseState(DatabaseState&&) = default;
  DatabaseState& operator=(DatabaseState&&) = default;

  /// Registers every table's columnar-snapshot rebuild with the global
  /// memory account (existing tables and those created later). Pass
  /// nullptr to detach. Not thread-safe against concurrent scans.
  void SetMemoryTracker(common::MemoryTracker* tracker);

  Status CreateTable(const std::string& name, size_t num_columns);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  const TableData* GetTable(const std::string& name) const;
  TableData* GetMutableTable(const std::string& name);

  /// Deep copy (rows are value types).
  DatabaseState Clone() const;

  /// Total number of rows across all tables (diagnostics).
  size_t TotalRows() const;

  /// Monotonic version of the stored data, advanced by EVERY mutation path:
  /// per-table mutation counters plus a structural component for table
  /// creation/removal. Direct TableData writers (bench seeding, tests)
  /// therefore invalidate cached conditional verdicts exactly like DML
  /// routed through Database — there is no bypass.
  uint64_t DataVersion() const;

 private:
  std::map<std::string, TableData> tables_;
  common::MemoryTracker* tracker_ = nullptr;
  /// Structural changes; absorbs the version of dropped tables so the
  /// aggregate never repeats a previously observed value.
  uint64_t structural_version_ = 0;
};

}  // namespace fgac::storage

#endif  // FGAC_STORAGE_DATABASE_STATE_H_
