#include "exec/key_table.h"

#include <bit>

namespace fgac::exec {

namespace {

/// Value::Hash of element i, read from the typed array.
size_t HashElement(const ColumnVector& c, size_t i) {
  using Tag = ColumnVector::Tag;
  if (!c.IsValid(i)) return HashNull();
  switch (c.tag()) {
    case Tag::kBool:
      return HashBool(c.BoolAt(i));
    case Tag::kInt:
      return HashInt(c.IntAt(i));
    case Tag::kDouble:
      return HashDouble(c.DoubleAt(i));
    case Tag::kString:
      return HashString(c.StringAt(i));
    case Tag::kGeneric:
      return c.GenericAt(i).Hash();
    case Tag::kUntyped:
      break;  // unreachable: untyped columns hold only NULLs
  }
  return HashNull();
}

}  // namespace

uint64_t HashKeyRow(const std::vector<ColumnVector>& keys, size_t i) {
  size_t h = kRowHashSeed;
  for (const ColumnVector& c : keys) h = CombineRowHash(h, HashElement(c, i));
  return h;
}

uint64_t HashKeyRow(const std::vector<ColumnVector>& columns,
                    const std::vector<size_t>& key_columns, size_t i) {
  size_t h = kRowHashSeed;
  for (size_t k : key_columns) h = CombineRowHash(h, HashElement(columns[k], i));
  return h;
}

int CompareKeyAt(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j) {
  bool a_null = a.IsNull(i), b_null = b.IsNull(j);
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
  return CompareAt(a, i, b, j);
}

void KeyTable::Clear() {
  slots_.clear();
  shift_ = 64;
  hashes_.clear();
  for (ColumnVector& c : keys_) c.Clear();
}

bool KeyTable::KeyEquals(uint32_t id, const std::vector<ColumnVector>& keys,
                         size_t i) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    if (CompareKeyAt(keys_[k], id, keys[k], i) != 0) return false;
  }
  return true;
}

size_t KeyTable::SlotOf(const std::vector<ColumnVector>& keys, size_t i,
                        uint64_t hash) const {
  size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(hash);; s = (s + 1) & mask) {
    uint32_t entry = slots_[s];
    if (entry == 0) return s;
    if (hashes_[entry - 1] == hash && KeyEquals(entry - 1, keys, i)) return s;
  }
}

uint32_t KeyTable::Find(const std::vector<ColumnVector>& keys, size_t i,
                        uint64_t hash) const {
  if (slots_.empty()) return kNotFound;
  uint32_t entry = slots_[SlotOf(keys, i, hash)];
  return entry == 0 ? kNotFound : entry - 1;
}

uint32_t KeyTable::FindOrInsert(const std::vector<ColumnVector>& keys,
                                size_t i, uint64_t hash, bool* inserted) {
  if (2 * (size() + 1) > slots_.size()) Grow();
  size_t s = SlotOf(keys, i, hash);
  *inserted = slots_[s] == 0;
  if (!*inserted) return slots_[s] - 1;
  auto id = static_cast<uint32_t>(size());
  slots_[s] = id + 1;
  hashes_.push_back(hash);
  if (id == 0) keys_.resize(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) keys_[k].AppendFrom(keys[k], i);
  return id;
}

void KeyTable::Grow() {
  size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(capacity, 0);
  shift_ = 64 - std::countr_zero(capacity);
  size_t mask = capacity - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    size_t s = HomeSlot(hashes_[id]);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = id + 1;
  }
}

}  // namespace fgac::exec
