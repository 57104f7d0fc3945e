#ifndef FGAC_STORAGE_KEY_INDEX_H_
#define FGAC_STORAGE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/chunk.h"

namespace fgac::storage {

/// Hash index from a table's key to the positions of the rows that hold it,
/// owned by TableData and kept current by every TableData mutator. It
/// stores no key values: each row position keeps its key's hash
/// (exec::HashKeyRow), a slot holds a position, and equality reads the key
/// back from the table's columns (exec::CompareKeyAt: NULL equals NULL, 3
/// equals 3.0). A key maps to every position that holds it, since writes
/// straight to storage can bypass the uniqueness check.
///
/// Layout: power-of-two slots holding position + 1 (0 = empty), at most 50%
/// load, linear probing with backward-shift deletion. That is 8 bytes of
/// hash plus 8-16 bytes of slots per row.
///
/// An index over no columns is inactive: every call is a no-op and Find
/// cannot answer.
class KeyIndex {
 public:
  explicit KeyIndex(std::vector<size_t> key_columns = {})
      : key_columns_(std::move(key_columns)) {}

  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Indexes the row just appended to `columns`: the position after the
  /// last indexed one.
  void Append(const std::vector<exec::ColumnVector>& columns);
  /// Re-indexes row `pos` after an in-place overwrite; a row whose key hash
  /// is unchanged keeps its slot.
  void Update(const std::vector<exec::ColumnVector>& columns, size_t pos);
  /// Drops the erased (ascending, deduplicated) positions and moves the
  /// survivors to their shifted positions: in place for up to
  /// kMaxInPlaceErase positions (one pass over the slots each), otherwise by
  /// re-slotting every survivor from its kept hash.
  void Erase(const std::vector<size_t>& ascending);
  /// Drops every position (the table was emptied).
  void Clear();

  /// Appends to `out`, ascending, every position whose key equals element
  /// `i` of `key` (one column per key column) and returns true. Returns
  /// false, appending nothing, when the index cannot answer: it is
  /// inactive, or an element of the probe may hash apart from a key it
  /// equals (Value::HashAgreesWithEquality).
  bool Find(const std::vector<exec::ColumnVector>& columns,
            const std::vector<exec::ColumnVector>& key, size_t i,
            exec::Selection* out) const;

 private:
  static constexpr size_t kMaxInPlaceErase = 16;

  size_t HomeSlot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// Puts `pos` into the first empty slot from its home.
  void Place(size_t pos);
  /// Frees the slot of `pos` (backward-shift deletion).
  void Unplace(size_t pos);
  /// Sizes the slot array for the indexed rows and places every position.
  void Reslot();

  std::vector<size_t> key_columns_;
  std::vector<uint64_t> hashes_;  // per row position
  std::vector<uint32_t> slots_;
  int shift_ = 64;
};

}  // namespace fgac::storage

#endif  // FGAC_STORAGE_KEY_INDEX_H_
