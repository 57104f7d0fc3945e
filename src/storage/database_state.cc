#include "storage/database_state.h"

#include <utility>

namespace fgac::storage {

Status DatabaseState::CreateTable(const std::string& name, size_t num_columns,
                                  std::vector<size_t> key_columns) {
  if (tables_.count(name) > 0) {
    return Status::CatalogError("table data for '" + name + "' already exists");
  }
  tables_.emplace(name, TableData(num_columns, std::move(key_columns)));
  ++structural_version_;
  return Status::OK();
}

Status DatabaseState::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::CatalogError("table data for '" + name + "' does not exist");
  }
  // Fold the dropped table's mutation count into the structural component
  // so DataVersion never regresses to an earlier value.
  structural_version_ += it->second.version() + 1;
  tables_.erase(it);
  return Status::OK();
}

bool DatabaseState::HasTable(const std::string& name) const {
  return GetTable(name) != nullptr;
}

const TableData* DatabaseState::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return &it->second;
  return base_ == nullptr ? nullptr : base_->GetTable(name);
}

TableData* DatabaseState::GetMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

DatabaseState DatabaseState::Clone() const {
  DatabaseState copy;
  copy.tables_ = tables_;
  return copy;
}

size_t DatabaseState::TotalRows() const {
  size_t n = 0;
  for (const auto& [name, data] : tables_) n += data.num_rows();
  return n;
}

uint64_t DatabaseState::DataVersion() const {
  uint64_t v = structural_version_;
  for (const auto& [name, data] : tables_) v += data.version();
  return v;
}

}  // namespace fgac::storage
