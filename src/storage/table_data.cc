#include "storage/table_data.h"

#include <algorithm>

namespace fgac::storage {

Row TableData::GetRow(size_t i) const {
  Row row;
  row.reserve(num_columns());
  for (const exec::ColumnVector& c : rows_.columns()) {
    row.push_back(c.GetValue(i));
  }
  return row;
}

void TableData::Append(const Row& row) {
  for (size_t c = 0; c < num_columns(); ++c) {
    if (c < row.size()) {
      rows_.column(c).Append(row[c]);
    } else {
      rows_.column(c).AppendNull();
    }
  }
  rows_.SetCardinality(rows_.size() + 1);
  index_.Append(rows_.columns());
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
  for (size_t c = 0; c < num_columns(); ++c) {
    rows_.column(c).Set(i, c < row.size() ? row[c] : Value::Null());
  }
  index_.Update(rows_.columns(), i);
  ++version_;
}

void TableData::ReplaceAllRows(const std::vector<Row>& rows) {
  rows_.Reset(num_columns());
  index_.Clear();
  InsertRows(rows);
}

void TableData::EraseIndices(const std::vector<size_t>& ascending_indices) {
  if (ascending_indices.empty()) return;
  for (size_t c = 0; c < num_columns(); ++c) {
    rows_.column(c).Erase(ascending_indices);
  }
  rows_.SetCardinality(rows_.size() - ascending_indices.size());
  index_.Erase(ascending_indices);
  ++version_;
}

Result<size_t> TableData::ScanChunk(size_t start, size_t max_rows,
                                    exec::DataChunk* out) const {
  out->Reset(num_columns());
  if (start >= num_rows()) return 0;
  size_t n = std::min(max_rows, num_rows() - start);
  for (size_t c = 0; c < num_columns(); ++c) {
    out->column(c).AppendRange(rows_.column(c), start, n);
  }
  out->SetCardinality(n);
  return n;
}

}  // namespace fgac::storage
