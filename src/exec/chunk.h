#ifndef FGAC_EXEC_CHUNK_H_
#define FGAC_EXEC_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace fgac::exec {

/// Row positions into a DataChunk, produced by batched predicate evaluation
/// and consumed by gather operations (a DuckDB-style selection vector).
using Selection = std::vector<uint32_t>;

/// One column of a DataChunk.
///
/// Storage is typed while every non-NULL value appended so far shares one
/// Value kind — the overwhelmingly common case for relational data — so the
/// hot evaluation kernels loop over flat int64/double/string arrays instead
/// of variant Values. The first time kinds mix the column silently degrades
/// to generic Value storage and every accessor keeps working. NULLs live in
/// a separate validity mask; the typed arrays hold placeholder entries at
/// NULL positions so indices stay aligned.
class ColumnVector {
 public:
  enum class Tag : uint8_t {
    kUntyped,  // no non-NULL value appended yet
    kBool,
    kInt,
    kDouble,
    kString,
    kGeneric,  // mixed kinds; values stored as Value
  };

  size_t size() const { return valid_.size(); }
  Tag tag() const { return tag_; }
  /// False at NULL positions.
  bool IsValid(size_t i) const { return valid_[i] != 0; }
  bool IsNull(size_t i) const { return valid_[i] == 0; }
  /// True when the column contains no NULLs (enables mask-free kernels).
  bool AllValid() const { return null_count_ == 0; }

  /// Drops all elements but keeps allocated storage for reuse.
  void Clear();
  void Reserve(size_t n);

  void AppendNull();
  void Append(const Value& v);
  /// Typed fast-path appends; they promote an untyped column and degrade a
  /// mismatched one, so they are always safe to call.
  void AppendBool(bool v);
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  /// Appends element i of src (typed copy when the tags line up).
  void AppendFrom(const ColumnVector& src, size_t i);
  /// Gather: appends src[sel[0]], src[sel[1]], ... column-at-a-time.
  /// Storage grows geometrically, so gathering chunk after chunk into one
  /// column (a hash-join build) does not reallocate on every call.
  void AppendSelected(const ColumnVector& src, const Selection& sel);
  /// Appends the contiguous range src[start, start + n) (bulk typed copy;
  /// the chunked table-scan hot path).
  void AppendRange(const ColumnVector& src, size_t start, size_t n);
  /// Drops all elements past the first n.
  void Truncate(size_t n);
  /// Overwrites element i in place. A value whose kind conflicts with the
  /// column's tag degrades the column to generic storage, as Append does.
  void Set(size_t i, const Value& v);
  /// Removes the elements at the given (ascending, deduplicated) positions,
  /// moving the survivors down in place; storage is never reallocated.
  void Erase(const std::vector<size_t>& ascending);

  /// Materializes element i as a Value (copies string payloads).
  Value GetValue(size_t i) const;
  /// Value kind of element i (kNull at NULL positions).
  Value::Kind KindAt(size_t i) const;

  // Unchecked typed accessors: valid only when IsValid(i) and tag() matches.
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }
  const Value& GenericAt(size_t i) const { return generic_[i]; }

 private:
  /// Adjusts tag_/storage so a value of `kind` can be appended; converts to
  /// generic storage when `kind` conflicts with the current tag.
  void PrepareAppend(Value::Kind kind);
  /// Converts typed storage to generic Value storage (kind mix detected).
  void Degenerify();

  Tag tag_ = Tag::kUntyped;
  size_t null_count_ = 0;
  std::vector<uint8_t> valid_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> generic_;
};

/// The typed part of Value's total order, three-way (<0, 0, >0): ints
/// compare exactly, doubles by CompareDoubles (an int meeting a double is
/// widened to double first, as Value::Compare widens it), strings by
/// std::string::compare and false before true. CompareAt and the in-place
/// filter (exec/eval.cc) both order typed elements through these.
inline int CompareTyped(int64_t x, int64_t y) { return (x > y) - (x < y); }
inline int CompareTyped(double x, double y) { return CompareDoubles(x, y); }
inline int CompareTyped(const std::string& x, const std::string& y) {
  int c = x.compare(y);
  return (c > 0) - (c < 0);
}
inline int CompareTyped(bool x, bool y) { return (x > y) - (x < y); }

/// Value-total-order comparison of a[i] vs b[j]; both elements must be
/// non-NULL. Same-tag typed columns compare without materializing Values.
int CompareAt(const ColumnVector& a, size_t i, const ColumnVector& b,
              size_t j);

/// A batch of rows in columnar layout — the unit of data flow between
/// physical operators. Operators fill up to ~kDefaultCapacity rows per
/// Next() call; the capacity is a fill target, not a hard limit (join match
/// buffers may briefly overshoot).
class DataChunk {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  DataChunk() = default;
  explicit DataChunk(size_t num_columns) { Reset(num_columns); }

  /// Drops all rows and re-shapes to num_columns (storage is reused).
  void Reset(size_t num_columns);

  size_t num_columns() const { return cols_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= kDefaultCapacity; }

  ColumnVector& column(size_t i) { return cols_[i]; }
  const ColumnVector& column(size_t i) const { return cols_[i]; }
  const std::vector<ColumnVector>& columns() const { return cols_; }

  void Reserve(size_t rows);
  void AppendRow(const Row& row);
  /// Gather: appends the selected rows of src column-at-a-time.
  void AppendSelected(const DataChunk& src, const Selection& sel);
  /// Appends row `li` of `left` concatenated with the row-major `right`
  /// (join output: probe-side chunk + materialized build-side row).
  void AppendConcat(const DataChunk& left, size_t li, const Row& right);
  /// Keeps only the first n rows.
  void Truncate(size_t n);

  /// Replaces the columns wholesale (projection output). Every column must
  /// contain `rows` elements.
  void AdoptColumns(std::vector<ColumnVector> cols, size_t rows);
  /// Explicit row count for zero-column chunks (e.g. `SELECT 1` feeds a
  /// one-row, zero-column VALUES), or after filling columns one by one.
  void SetCardinality(size_t rows) { size_ = rows; }

  /// Materializes row i (copies string payloads).
  Row GetRow(size_t i) const;

 private:
  size_t size_ = 0;
  std::vector<ColumnVector> cols_;
};

/// Bulk-appends rows [start, start + max_rows) of `rows` into `out`
/// column-at-a-time (out must already have the right shape). Returns the
/// number of rows appended. Shared by table scans and VALUES.
size_t AppendRowsToChunk(const std::vector<Row>& rows, size_t start,
                         size_t max_rows, DataChunk* out);

}  // namespace fgac::exec

#endif  // FGAC_EXEC_CHUNK_H_
