#include "storage/relation.h"

#include <algorithm>
#include <unordered_map>

#include "exec/chunk.h"

namespace fgac::storage {

void Relation::AppendChunk(const exec::DataChunk& chunk) {
  for (size_t i = 0; i < chunk.size(); ++i) {
    rows_.push_back(chunk.GetRow(i));
  }
}

namespace {

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

bool Relation::MultisetEquals(const Relation& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  counts.reserve(rows_.size());
  for (const Row& r : rows_) ++counts[r];
  for (const Row& r : other.rows_) {
    auto it = counts.find(r);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

std::vector<Row> Relation::SortedRows() const {
  std::vector<Row> sorted = rows_;
  std::sort(sorted.begin(), sorted.end(), RowLess);
  return sorted;
}

std::string Relation::ToString(size_t max_rows) const {
  // Compute column widths.
  std::vector<size_t> widths(column_names_.size());
  for (size_t i = 0; i < column_names_.size(); ++i) {
    widths[i] = column_names_[i].size();
  }
  std::vector<std::vector<std::string>> cells;
  size_t shown = std::min(rows_.size(), max_rows);
  cells.reserve(shown);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells;
    for (size_t i = 0; i < rows_[r].size(); ++i) {
      std::string cell = rows_[r][i].ToString();
      if (i < widths.size()) widths[i] = std::max(widths[i], cell.size());
      row_cells.push_back(std::move(cell));
    }
    cells.push_back(std::move(row_cells));
  }

  auto pad = [](const std::string& s, size_t w) {
    std::string out = s;
    out.resize(std::max(w, s.size()), ' ');
    return out;
  };

  std::string out;
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (i > 0) out += " | ";
    out += pad(column_names_[i], widths[i]);
  }
  out += "\n";
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (i > 0) out += "-+-";
    out += std::string(widths[i], '-');
  }
  out += "\n";
  for (const auto& row_cells : cells) {
    for (size_t i = 0; i < row_cells.size(); ++i) {
      if (i > 0) out += " | ";
      out += pad(row_cells[i], i < widths.size() ? widths[i] : 0);
    }
    out += "\n";
  }
  if (rows_.size() > shown) {
    out += "... (";
    out += std::to_string(rows_.size() - shown);
    out += " more rows)\n";
  }
  out += "(";
  out += std::to_string(rows_.size());
  out += " rows)\n";
  return out;
}

}  // namespace fgac::storage
