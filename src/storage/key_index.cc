#include "storage/key_index.h"

#include <algorithm>
#include <bit>

#include "exec/key_table.h"

namespace fgac::storage {

void KeyIndex::Append(const std::vector<exec::ColumnVector>& columns) {
  if (key_columns_.empty()) return;
  hashes_.push_back(exec::HashKeyRow(columns, key_columns_, hashes_.size()));
  if (2 * hashes_.size() > slots_.size()) {
    Reslot();
  } else {
    Place(hashes_.size() - 1);
  }
}

void KeyIndex::Update(const std::vector<exec::ColumnVector>& columns,
                      size_t pos) {
  if (key_columns_.empty()) return;
  uint64_t hash = exec::HashKeyRow(columns, key_columns_, pos);
  if (hash == hashes_[pos]) return;
  Unplace(pos);
  hashes_[pos] = hash;
  Place(pos);
}

void KeyIndex::Erase(const std::vector<size_t>& ascending) {
  if (key_columns_.empty() || ascending.empty()) return;
  // Up to kMaxInPlaceErase rows free their slots; then one pass per erased
  // position, highest first so each compares unshifted positions, moves
  // every later position down by one. The pass is branch-free so it
  // vectorizes, and an empty slot (0) stays 0. More rows re-slot all.
  bool in_place = ascending.size() <= kMaxInPlaceErase;
  if (in_place) {
    for (size_t pos : ascending) Unplace(pos);
    for (auto it = ascending.rbegin(); it != ascending.rend(); ++it) {
      auto above = static_cast<uint32_t>(*it + 1);
      for (uint32_t& s : slots_) s -= s > above ? 1 : 0;
    }
  }
  size_t out = ascending.front();
  for (size_t k = 0; k < ascending.size(); ++k) {
    size_t end = k + 1 < ascending.size() ? ascending[k + 1] : hashes_.size();
    for (size_t pos = ascending[k] + 1; pos < end; ++pos) {
      hashes_[out++] = hashes_[pos];
    }
  }
  hashes_.resize(out);
  if (!in_place) Reslot();
}

void KeyIndex::Clear() {
  hashes_.clear();
  slots_.clear();
  shift_ = 64;
}

bool KeyIndex::Find(const std::vector<exec::ColumnVector>& columns,
                    const std::vector<exec::ColumnVector>& key, size_t i,
                    exec::Selection* out) const {
  if (key_columns_.empty()) return false;
  for (const exec::ColumnVector& c : key) {
    if (!c.GetValue(i).HashAgreesWithEquality()) return false;
  }
  if (slots_.empty()) return true;
  uint64_t hash = exec::HashKeyRow(key, i);
  size_t first = out->size();
  size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(hash); slots_[s] != 0; s = (s + 1) & mask) {
    uint32_t pos = slots_[s] - 1;
    if (hashes_[pos] != hash) continue;
    bool equal = true;
    for (size_t k = 0; equal && k < key_columns_.size(); ++k) {
      equal = exec::CompareKeyAt(columns[key_columns_[k]], pos, key[k], i) == 0;
    }
    if (equal) out->push_back(pos);
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
  return true;
}

void KeyIndex::Place(size_t pos) {
  size_t mask = slots_.size() - 1;
  size_t s = HomeSlot(hashes_[pos]);
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = static_cast<uint32_t>(pos + 1);
}

void KeyIndex::Unplace(size_t pos) {
  size_t mask = slots_.size() - 1;
  size_t hole = HomeSlot(hashes_[pos]);
  while (slots_[hole] != pos + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the run into the
  // hole unless its home lies cyclically after the hole.
  for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    size_t home = HomeSlot(hashes_[slots_[j] - 1]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
}

void KeyIndex::Reslot() {
  size_t capacity = 16;
  while (capacity < 2 * hashes_.size()) capacity *= 2;
  slots_.assign(capacity, 0);
  shift_ = 64 - std::countr_zero(capacity);
  for (size_t pos = 0; pos < hashes_.size(); ++pos) Place(pos);
}

}  // namespace fgac::storage
