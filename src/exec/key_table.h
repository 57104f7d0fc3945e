#ifndef FGAC_EXEC_KEY_TABLE_H_
#define FGAC_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <vector>

#include "exec/chunk.h"

namespace fgac::exec {

/// Hash of row i of `keys` (one column per key element), read straight from
/// the typed arrays. It equals RowHash over the row's Values: an int hashes
/// through double so 3 and 3.0 collide, -0.0 hashes as 0.0, every NaN
/// alike, and NULL is one constant.
uint64_t HashKeyRow(const std::vector<ColumnVector>& keys, size_t i);
/// The same hash over the key columns `key_columns` of `columns` (a table's
/// key read in place), so it equals HashKeyRow over those columns alone.
uint64_t HashKeyRow(const std::vector<ColumnVector>& columns,
                    const std::vector<size_t>& key_columns, size_t i);

/// Three-way key order of a[i] vs b[j]: NULL equals NULL and sorts first,
/// then CompareAt. This is Value::Compare's order, so `== 0` is the
/// equality of Value::operator== and RowEq.
int CompareKeyAt(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j);

/// Flat open-addressing hash table mapping a typed key to a dense id
/// (0, 1, 2, ... in insertion order). A key is one row of a set of key
/// columns; the table keeps its distinct keys column-wise, so GROUP BY,
/// DISTINCT and the hash join hash and compare keys without building Rows.
///
/// Layout: power-of-two slots holding id + 1 (0 = empty), at most 50% load,
/// linear probing. Each key's 64-bit hash is stored and compared before the
/// key itself. Find is const and touches no shared mutable state, so one
/// built table may be probed from several threads at once.
class KeyTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// Drops every key; storage is kept for reuse.
  void Clear();

  /// Number of distinct keys (the next id).
  size_t size() const { return hashes_.size(); }

  /// Id of the key at row i of `keys`, or kNotFound. `hash` must be
  /// HashKeyRow(keys, i).
  uint32_t Find(const std::vector<ColumnVector>& keys, size_t i,
                uint64_t hash) const;

  /// Id of the key at row i of `keys`, inserting it (with the next id) when
  /// absent; `*inserted` tells which.
  uint32_t FindOrInsert(const std::vector<ColumnVector>& keys, size_t i,
                        uint64_t hash, bool* inserted);

  /// The distinct keys, column-wise: element `id` of each column.
  const std::vector<ColumnVector>& keys() const { return keys_; }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

 private:
  /// Slot index where probing for `hash` starts (multiplicative hashing
  /// takes the high bits, so weak low bits do not cluster).
  size_t HomeSlot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  bool KeyEquals(uint32_t id, const std::vector<ColumnVector>& keys,
                 size_t i) const;
  /// The slot holding the key at row i of `keys`, or the empty slot where
  /// probing for it stopped. Needs a non-empty slot array.
  size_t SlotOf(const std::vector<ColumnVector>& keys, size_t i,
                uint64_t hash) const;
  /// Doubles the slot array and re-slots every id from its stored hash.
  void Grow();

  std::vector<uint32_t> slots_;
  int shift_ = 64;
  std::vector<uint64_t> hashes_;    // per id
  std::vector<ColumnVector> keys_;  // per key column, element per id
};

}  // namespace fgac::exec

#endif  // FGAC_EXEC_KEY_TABLE_H_
