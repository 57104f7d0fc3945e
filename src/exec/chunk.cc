#include "exec/chunk.h"

#include <algorithm>
#include <cassert>

namespace fgac::exec {

// ---------------------------------------------------------------------------
// ColumnVector
// ---------------------------------------------------------------------------

namespace {

ColumnVector::Tag TagForKind(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kBool:
      return ColumnVector::Tag::kBool;
    case Value::Kind::kInt:
      return ColumnVector::Tag::kInt;
    case Value::Kind::kDouble:
      return ColumnVector::Tag::kDouble;
    case Value::Kind::kString:
      return ColumnVector::Tag::kString;
    case Value::Kind::kNull:
      break;
  }
  return ColumnVector::Tag::kUntyped;
}

}  // namespace

void ColumnVector::Clear() {
  tag_ = Tag::kUntyped;
  null_count_ = 0;
  valid_.clear();
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  generic_.clear();
}

void ColumnVector::Reserve(size_t n) {
  valid_.reserve(n);
  switch (tag_) {
    case Tag::kUntyped:
      break;
    case Tag::kBool:
      bools_.reserve(n);
      break;
    case Tag::kInt:
      ints_.reserve(n);
      break;
    case Tag::kDouble:
      doubles_.reserve(n);
      break;
    case Tag::kString:
      strings_.reserve(n);
      break;
    case Tag::kGeneric:
      generic_.reserve(n);
      break;
  }
}

void ColumnVector::Degenerify() {
  size_t n = size();
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i)) {
      values.push_back(Value::Null());
      continue;
    }
    switch (tag_) {
      case Tag::kBool:
        values.push_back(Value::Bool(BoolAt(i)));
        break;
      case Tag::kInt:
        values.push_back(Value::Int(IntAt(i)));
        break;
      case Tag::kDouble:
        values.push_back(Value::Double(DoubleAt(i)));
        break;
      case Tag::kString:
        values.push_back(Value::String(std::move(strings_[i])));
        break;
      case Tag::kUntyped:
      case Tag::kGeneric:
        values.push_back(Value::Null());  // unreachable: all-null or generic
        break;
    }
  }
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  generic_ = std::move(values);
  tag_ = Tag::kGeneric;
}

void ColumnVector::PrepareAppend(Value::Kind kind) {
  Tag wanted = TagForKind(kind);
  if (tag_ == wanted || tag_ == Tag::kGeneric) return;
  if (tag_ == Tag::kUntyped) {
    // First non-NULL value fixes the type; backfill placeholders for any
    // leading NULLs so indices stay aligned.
    tag_ = wanted;
    switch (tag_) {
      case Tag::kBool:
        bools_.assign(size(), 0);
        break;
      case Tag::kInt:
        ints_.assign(size(), 0);
        break;
      case Tag::kDouble:
        doubles_.assign(size(), 0.0);
        break;
      case Tag::kString:
        strings_.assign(size(), std::string());
        break;
      case Tag::kUntyped:
      case Tag::kGeneric:
        break;
    }
    return;
  }
  Degenerify();
}

void ColumnVector::AppendNull() {
  valid_.push_back(0);
  ++null_count_;
  switch (tag_) {
    case Tag::kUntyped:
      break;
    case Tag::kBool:
      bools_.push_back(0);
      break;
    case Tag::kInt:
      ints_.push_back(0);
      break;
    case Tag::kDouble:
      doubles_.push_back(0.0);
      break;
    case Tag::kString:
      strings_.emplace_back();
      break;
    case Tag::kGeneric:
      generic_.push_back(Value::Null());
      break;
  }
}

void ColumnVector::Append(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      AppendNull();
      return;
    case Value::Kind::kBool:
      AppendBool(v.bool_value());
      return;
    case Value::Kind::kInt:
      AppendInt(v.int_value());
      return;
    case Value::Kind::kDouble:
      AppendDouble(v.double_value());
      return;
    case Value::Kind::kString:
      AppendString(v.string_value());
      return;
  }
}

void ColumnVector::AppendBool(bool v) {
  PrepareAppend(Value::Kind::kBool);
  if (tag_ == Tag::kGeneric) {
    generic_.push_back(Value::Bool(v));
  } else {
    bools_.push_back(v ? 1 : 0);
  }
  valid_.push_back(1);
}

void ColumnVector::AppendInt(int64_t v) {
  PrepareAppend(Value::Kind::kInt);
  if (tag_ == Tag::kGeneric) {
    generic_.push_back(Value::Int(v));
  } else {
    ints_.push_back(v);
  }
  valid_.push_back(1);
}

void ColumnVector::AppendDouble(double v) {
  PrepareAppend(Value::Kind::kDouble);
  if (tag_ == Tag::kGeneric) {
    generic_.push_back(Value::Double(v));
  } else {
    doubles_.push_back(v);
  }
  valid_.push_back(1);
}

void ColumnVector::AppendString(std::string v) {
  PrepareAppend(Value::Kind::kString);
  if (tag_ == Tag::kGeneric) {
    generic_.push_back(Value::String(std::move(v)));
  } else {
    strings_.push_back(std::move(v));
  }
  valid_.push_back(1);
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (src.tag_) {
    case Tag::kUntyped:
      AppendNull();  // unreachable: untyped columns hold only NULLs
      return;
    case Tag::kBool:
      AppendBool(src.BoolAt(i));
      return;
    case Tag::kInt:
      AppendInt(src.IntAt(i));
      return;
    case Tag::kDouble:
      AppendDouble(src.DoubleAt(i));
      return;
    case Tag::kString:
      AppendString(src.StringAt(i));
      return;
    case Tag::kGeneric:
      Append(src.GenericAt(i));
      return;
  }
}

void ColumnVector::AppendSelected(const ColumnVector& src,
                                  const Selection& sel) {
  if (valid_.capacity() < size() + sel.size()) {
    Reserve(std::max(size() + sel.size(), 2 * size()));
  }
  // Tight typed loops for the common fully-valid case; the generic path
  // handles NULLs and mixed columns.
  if (src.null_count_ == 0 &&
      (tag_ == Tag::kUntyped || tag_ == src.tag_)) {
    switch (src.tag_) {
      case Tag::kInt:
        PrepareAppend(Value::Kind::kInt);
        for (uint32_t i : sel) ints_.push_back(src.ints_[i]);
        valid_.insert(valid_.end(), sel.size(), 1);
        return;
      case Tag::kDouble:
        PrepareAppend(Value::Kind::kDouble);
        for (uint32_t i : sel) doubles_.push_back(src.doubles_[i]);
        valid_.insert(valid_.end(), sel.size(), 1);
        return;
      case Tag::kBool:
        PrepareAppend(Value::Kind::kBool);
        for (uint32_t i : sel) bools_.push_back(src.bools_[i]);
        valid_.insert(valid_.end(), sel.size(), 1);
        return;
      case Tag::kString:
        PrepareAppend(Value::Kind::kString);
        for (uint32_t i : sel) strings_.push_back(src.strings_[i]);
        valid_.insert(valid_.end(), sel.size(), 1);
        return;
      default:
        break;
    }
  }
  for (uint32_t i : sel) AppendFrom(src, i);
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t start,
                               size_t n) {
  if (n == 0) return;
  Reserve(size() + n);
  // Bulk typed copy when the tags line up; placeholder entries keep NULL
  // positions aligned, so the validity range copies verbatim.
  if (src.tag_ != Tag::kUntyped && src.tag_ != Tag::kGeneric &&
      (tag_ == Tag::kUntyped || tag_ == src.tag_)) {
    switch (src.tag_) {
      case Tag::kBool:
        PrepareAppend(Value::Kind::kBool);
        bools_.insert(bools_.end(), src.bools_.begin() + start,
                      src.bools_.begin() + start + n);
        break;
      case Tag::kInt:
        PrepareAppend(Value::Kind::kInt);
        ints_.insert(ints_.end(), src.ints_.begin() + start,
                     src.ints_.begin() + start + n);
        break;
      case Tag::kDouble:
        PrepareAppend(Value::Kind::kDouble);
        doubles_.insert(doubles_.end(), src.doubles_.begin() + start,
                        src.doubles_.begin() + start + n);
        break;
      case Tag::kString:
        PrepareAppend(Value::Kind::kString);
        strings_.insert(strings_.end(), src.strings_.begin() + start,
                        src.strings_.begin() + start + n);
        break;
      default:
        break;
    }
    valid_.insert(valid_.end(), src.valid_.begin() + start,
                  src.valid_.begin() + start + n);
    for (size_t i = start; i < start + n; ++i) {
      if (src.valid_[i] == 0) ++null_count_;
    }
    return;
  }
  for (size_t i = start; i < start + n; ++i) AppendFrom(src, i);
}

void ColumnVector::Truncate(size_t n) {
  if (n >= size()) return;
  for (size_t i = n; i < valid_.size(); ++i) {
    if (valid_[i] == 0) --null_count_;
  }
  valid_.resize(n);
  switch (tag_) {
    case Tag::kUntyped:
      break;
    case Tag::kBool:
      bools_.resize(n);
      break;
    case Tag::kInt:
      ints_.resize(n);
      break;
    case Tag::kDouble:
      doubles_.resize(n);
      break;
    case Tag::kString:
      strings_.resize(n);
      break;
    case Tag::kGeneric:
      generic_.resize(n);
      break;
  }
}

void ColumnVector::Set(size_t i, const Value& v) {
  if (v.is_null()) {
    if (IsValid(i)) ++null_count_;
    valid_[i] = 0;
    if (tag_ == Tag::kGeneric) generic_[i] = Value::Null();
    return;
  }
  PrepareAppend(v.kind());
  switch (tag_) {
    case Tag::kBool:
      bools_[i] = v.bool_value() ? 1 : 0;
      break;
    case Tag::kInt:
      ints_[i] = v.int_value();
      break;
    case Tag::kDouble:
      doubles_[i] = v.double_value();
      break;
    case Tag::kString:
      strings_[i] = v.string_value();
      break;
    case Tag::kGeneric:
      generic_[i] = v;
      break;
    case Tag::kUntyped:
      break;  // unreachable: PrepareAppend typed the column
  }
  if (IsNull(i)) --null_count_;
  valid_[i] = 1;
}

namespace {

// Compacts `v` over the positions not listed in `ascending`. Empty vectors
// (the storage a column's tag does not use) are left alone.
template <typename T>
void EraseAscending(std::vector<T>* v, const std::vector<size_t>& ascending) {
  if (v->empty()) return;
  size_t out = ascending.front();
  size_t next = 0;
  for (size_t i = out; i < v->size(); ++i) {
    if (next < ascending.size() && ascending[next] == i) {
      ++next;
      continue;
    }
    (*v)[out++] = std::move((*v)[i]);
  }
  v->resize(out);
}

}  // namespace

void ColumnVector::Erase(const std::vector<size_t>& ascending) {
  if (ascending.empty()) return;
  for (size_t i : ascending) {
    if (IsNull(i)) --null_count_;
  }
  EraseAscending(&valid_, ascending);
  EraseAscending(&bools_, ascending);
  EraseAscending(&ints_, ascending);
  EraseAscending(&doubles_, ascending);
  EraseAscending(&strings_, ascending);
  EraseAscending(&generic_, ascending);
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (tag_) {
    case Tag::kUntyped:
      return Value::Null();
    case Tag::kBool:
      return Value::Bool(BoolAt(i));
    case Tag::kInt:
      return Value::Int(IntAt(i));
    case Tag::kDouble:
      return Value::Double(DoubleAt(i));
    case Tag::kString:
      return Value::String(StringAt(i));
    case Tag::kGeneric:
      return GenericAt(i);
  }
  return Value::Null();
}

Value::Kind ColumnVector::KindAt(size_t i) const {
  if (IsNull(i)) return Value::Kind::kNull;
  switch (tag_) {
    case Tag::kUntyped:
      return Value::Kind::kNull;
    case Tag::kBool:
      return Value::Kind::kBool;
    case Tag::kInt:
      return Value::Kind::kInt;
    case Tag::kDouble:
      return Value::Kind::kDouble;
    case Tag::kString:
      return Value::Kind::kString;
    case Tag::kGeneric:
      return GenericAt(i).kind();
  }
  return Value::Kind::kNull;
}

int CompareAt(const ColumnVector& a, size_t i, const ColumnVector& b,
              size_t j) {
  using Tag = ColumnVector::Tag;
  Tag ta = a.tag(), tb = b.tag();
  if (ta == Tag::kInt && tb == Tag::kInt) {
    return CompareTyped(a.IntAt(i), b.IntAt(j));
  }
  if ((ta == Tag::kInt || ta == Tag::kDouble) &&
      (tb == Tag::kInt || tb == Tag::kDouble)) {
    double x = ta == Tag::kInt ? static_cast<double>(a.IntAt(i)) : a.DoubleAt(i);
    double y = tb == Tag::kInt ? static_cast<double>(b.IntAt(j)) : b.DoubleAt(j);
    return CompareTyped(x, y);
  }
  if (ta == Tag::kString && tb == Tag::kString) {
    return CompareTyped(a.StringAt(i), b.StringAt(j));
  }
  if (ta == Tag::kBool && tb == Tag::kBool) {
    return CompareTyped(a.BoolAt(i), b.BoolAt(j));
  }
  // Mixed-kind or generic columns: rare enough to materialize.
  return a.GetValue(i).Compare(b.GetValue(j));
}

// ---------------------------------------------------------------------------
// DataChunk
// ---------------------------------------------------------------------------

void DataChunk::Reset(size_t num_columns) {
  cols_.resize(num_columns);
  for (ColumnVector& c : cols_) c.Clear();
  size_ = 0;
}

void DataChunk::Reserve(size_t rows) {
  for (ColumnVector& c : cols_) c.Reserve(rows);
}

// Arity mismatches below indicate an operator bug. Debug builds still
// assert; release builds degrade by truncating extra source columns and
// NULL-padding missing ones instead of reading out of bounds.

void DataChunk::AppendRow(const Row& row) {
  assert(row.size() == cols_.size());
  size_t shared = std::min(row.size(), cols_.size());
  for (size_t c = 0; c < shared; ++c) cols_[c].Append(row[c]);
  for (size_t c = shared; c < cols_.size(); ++c) cols_[c].AppendNull();
  ++size_;
}

void DataChunk::AppendSelected(const DataChunk& src, const Selection& sel) {
  assert(src.num_columns() == num_columns());
  size_t shared = std::min(src.num_columns(), num_columns());
  for (size_t c = 0; c < shared; ++c) {
    cols_[c].AppendSelected(src.cols_[c], sel);
  }
  for (size_t c = shared; c < cols_.size(); ++c) {
    for (size_t k = 0; k < sel.size(); ++k) cols_[c].AppendNull();
  }
  size_ += sel.size();
}

void DataChunk::AppendConcat(const DataChunk& left, size_t li,
                             const Row& right) {
  size_t ln = left.num_columns();
  assert(ln + right.size() == cols_.size());
  size_t shared_left = std::min(ln, cols_.size());
  for (size_t c = 0; c < shared_left; ++c) {
    cols_[c].AppendFrom(left.cols_[c], li);
  }
  for (size_t c = 0; c < right.size() && shared_left + c < cols_.size(); ++c) {
    cols_[shared_left + c].Append(right[c]);
  }
  for (ColumnVector& col : cols_) {
    if (col.size() <= size_) col.AppendNull();
  }
  ++size_;
}

void DataChunk::Truncate(size_t n) {
  if (n >= size_) return;
  for (ColumnVector& c : cols_) c.Truncate(n);
  size_ = n;
}

void DataChunk::AdoptColumns(std::vector<ColumnVector> cols, size_t rows) {
  cols_ = std::move(cols);
  size_ = rows;
}

Row DataChunk::GetRow(size_t i) const {
  Row row;
  row.reserve(cols_.size());
  for (const ColumnVector& c : cols_) row.push_back(c.GetValue(i));
  return row;
}

size_t AppendRowsToChunk(const std::vector<Row>& rows, size_t start,
                         size_t max_rows, DataChunk* out) {
  if (start >= rows.size()) return 0;
  size_t n = std::min(max_rows, rows.size() - start);
  if (out->num_columns() == 0) {
    out->SetCardinality(out->size() + n);
    return n;
  }
  out->Reserve(out->size() + n);
  for (size_t c = 0; c < out->num_columns(); ++c) {
    ColumnVector& col = out->column(c);
    for (size_t i = start; i < start + n; ++i) col.Append(rows[i][c]);
  }
  out->SetCardinality(out->size() + n);
  return n;
}

}  // namespace fgac::exec
