#include "storage/table_data.h"

#include <algorithm>

namespace fgac::storage {

Row TableData::GetRow(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const exec::ColumnVector& c : columns_) row.push_back(c.GetValue(i));
  return row;
}

void TableData::Append(const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c < row.size()) {
      columns_[c].Append(row[c]);
    } else {
      columns_[c].AppendNull();
    }
  }
  ++num_rows_;
}

void TableData::Insert(const Row& row) {
  Append(row);
  ++version_;
}

void TableData::InsertRows(const std::vector<Row>& rows) {
  for (const Row& r : rows) Append(r);
  ++version_;
}

void TableData::UpdateRow(size_t i, const Row& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Set(i, c < row.size() ? row[c] : Value::Null());
  }
  ++version_;
}

void TableData::ReplaceAllRows(const std::vector<Row>& rows) {
  for (exec::ColumnVector& c : columns_) c.Clear();
  num_rows_ = 0;
  InsertRows(rows);
}

void TableData::EraseIndices(const std::vector<size_t>& ascending_indices) {
  if (ascending_indices.empty()) return;
  for (exec::ColumnVector& c : columns_) c.Erase(ascending_indices);
  num_rows_ -= ascending_indices.size();
  ++version_;
}

Result<size_t> TableData::ScanChunk(size_t start, size_t max_rows,
                                    exec::DataChunk* out) const {
  out->Reset(columns_.size());
  if (start >= num_rows_) return 0;
  size_t n = std::min(max_rows, num_rows_ - start);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out->column(c).AppendRange(columns_[c], start, n);
  }
  out->SetCardinality(n);
  return n;
}

}  // namespace fgac::storage
