#ifndef FGAC_STORAGE_DATABASE_STATE_H_
#define FGAC_STORAGE_DATABASE_STATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table_data.h"

namespace fgac::storage {

/// The data of every base table — one "database state" in the paper's
/// terminology (Definitions 4.1–4.3). Cloneable so tests can construct
/// PA-equivalent states by mutating tuples invisible to the authorization
/// views and re-running queries.
///
/// A state can also be a layer over a read-only `base`: tables created in
/// the layer are found first, and every other name reads through to the
/// base. One statement's private tables (system-table snapshots, witness
/// pseudo-tables) live in such a layer, so reading them writes nothing the
/// base's other readers can see. Clone, TotalRows and DataVersion cover a
/// layer's own tables only.
class DatabaseState {
 public:
  DatabaseState() = default;
  /// A layer over `base`, which must outlive it.
  explicit DatabaseState(const DatabaseState* base) : base_(base) {}
  DatabaseState(const DatabaseState&) = delete;
  DatabaseState& operator=(const DatabaseState&) = delete;
  DatabaseState(DatabaseState&&) = default;
  DatabaseState& operator=(DatabaseState&&) = default;

  /// Creates the table in this state; in a layer it shadows the base's
  /// table of the same name. `key_columns` are the primary key's column
  /// indices from the catalog (empty = no key, no key index).
  Status CreateTable(const std::string& name, size_t num_columns,
                     std::vector<size_t> key_columns = {});
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  const TableData* GetTable(const std::string& name) const;
  /// This state's own tables only: a layer never writes its base.
  TableData* GetMutableTable(const std::string& name);

  /// Deep copy of this state's own tables (columns are value types).
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
  const DatabaseState* base_ = nullptr;
  /// Structural changes; absorbs the version of dropped tables so the
  /// aggregate never repeats a previously observed value.
  uint64_t structural_version_ = 0;
};

}  // namespace fgac::storage

#endif  // FGAC_STORAGE_DATABASE_STATE_H_
