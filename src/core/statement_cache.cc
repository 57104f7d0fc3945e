#include "core/statement_cache.h"

#include <algorithm>
#include <functional>

namespace fgac::core {

StatementCache::StatementCache(size_t max_entries) {
  size_t total = max_entries == 0 ? 1 : max_entries;
  max_per_shard_ = std::max<size_t>(1, total / kShards);
}

namespace {

/// Exact equality, kind included: a verdict for `k = 3` is not reused for
/// `k = 3.0`, just as the ad-hoc texts of the two differ.
bool SameValue(const Value& a, const Value& b) {
  return a.kind() == b.kind() && a == b;
}

bool SameArgs(const std::vector<Value>& a, const std::vector<Value>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameValue);
}

}  // namespace

bool SameParams(const SessionParams& a, const SessionParams& b) {
  if (&a == &b) return true;  // one shared map
  auto same = [](const auto& x, const auto& y) {
    return x.first == y.first && SameValue(x.second, y.second);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same);
}

uint64_t StatementCache::EntryKey(const std::string& user,
                                  uint64_t stmt_fp) const {
  // FNV-mix the principal into the plan fingerprint; the principal and
  // text tiebreaks make residual collisions harmless (a miss, never a
  // wrong reuse).
  uint64_t h = std::hash<std::string>()(user);
  return (h * 1099511628211ULL) ^ stmt_fp;
}

StatementCache::Shard& StatementCache::ShardFor(uint64_t entry_key) {
  // The low bits of the FNV product are well mixed; kShards is a power of
  // two.
  return shards_[entry_key & (kShards - 1)];
}

StatementCache::Entry* StatementCache::FindFresh(Shard& shard,
                                                 uint64_t entry_key,
                                                 const Key& key) {
  auto it = shard.entries.find(entry_key);
  if (it == shard.entries.end()) return nullptr;
  Entry& entry = it->second;
  if (entry.policy_epoch != key.policy_epoch) {
    // Fail-closed: anything cached under an older policy state is
    // discarded wholesale and enforcement re-runs from scratch.
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    shard.invalidations.fetch_add(1, std::memory_order_relaxed);
    shard.lru.erase(entry.lru_pos);
    shard.entries.erase(it);
    return nullptr;
  }
  if (entry.user != key.user || entry.text != key.text) {
    collisions_.fetch_add(1, std::memory_order_relaxed);
    shard.collisions.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos);
  return &entry;
}

StatementCache::Entry& StatementCache::UpsertEntry(Shard& shard,
                                                   uint64_t entry_key,
                                                   const Key& key) {
  auto it = shard.entries.find(entry_key);
  if (it != shard.entries.end()) {
    Entry& entry = it->second;
    if (entry.policy_epoch != key.policy_epoch || entry.user != key.user ||
        entry.text != key.text) {
      // Stale epoch or a fingerprint collision: start the entry over
      // rather than mixing variants computed under different premises.
      entry.truman_plans.clear();
      entry.verdicts.clear();
      entry.user = key.user;
      entry.text = key.text;
      entry.policy_epoch = key.policy_epoch;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos);
    return entry;
  }
  while (shard.entries.size() >= max_per_shard_) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(entry_key);
  Entry& entry = shard.entries[entry_key];
  entry.user = key.user;
  entry.text = key.text;
  entry.policy_epoch = key.policy_epoch;
  entry.lru_pos = shard.lru.begin();
  return entry;
}

algebra::PlanPtr StatementCache::LookupTrumanPlan(const Key& key,
                                                 uint64_t params_fp) {
  uint64_t ek = EntryKey(key.user, key.stmt_fp);
  Shard& shard = ShardFor(ek);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = FindFresh(shard, ek, key);
  if (entry != nullptr) {
    auto it = entry->truman_plans.find(params_fp);
    if (it != entry->truman_plans.end()) {
      if (SameParams(*it->second.params, *key.params)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return it->second.plan;
      }
      // The parameter fingerprint collided: the plan instantiates other
      // session parameters.
      collisions_.fetch_add(1, std::memory_order_relaxed);
      shard.collisions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void StatementCache::InsertTrumanPlan(const Key& key, uint64_t params_fp,
                                      algebra::PlanPtr plan) {
  uint64_t ek = EntryKey(key.user, key.stmt_fp);
  Shard& shard = ShardFor(ek);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = UpsertEntry(shard, ek, key);
  if (entry.truman_plans.size() >= kMaxVariants &&
      entry.truman_plans.find(params_fp) == entry.truman_plans.end()) {
    entry.truman_plans.erase(entry.truman_plans.begin());
  }
  entry.truman_plans[params_fp] = CachedTrumanPlan{std::move(plan), key.params};
}

bool StatementCache::LookupVerdict(const Key& key, uint64_t exec_fp,
                                   uint64_t data_version, ValidityReport* out,
                                   const std::vector<Value>& args) {
  uint64_t ek = EntryKey(key.user, key.stmt_fp);
  Shard& shard = ShardFor(ek);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = FindFresh(shard, ek, key);
  if (entry != nullptr) {
    auto it = entry->verdicts.find(exec_fp);
    if (it != entry->verdicts.end()) {
      const CachedVerdict& v = it->second;
      // Only unconditionally-valid verdicts survive data changes;
      // conditional verdicts and rejections hinge on the rows present when
      // they were computed.
      bool data_sensitive = !v.report.valid || !v.report.unconditional;
      if (!SameParams(*v.params, *key.params) || !SameArgs(v.args, args)) {
        // The fingerprint collided: the verdict is for other session
        // parameters or other constants.
        collisions_.fetch_add(1, std::memory_order_relaxed);
        shard.collisions.fetch_add(1, std::memory_order_relaxed);
      } else if (data_sensitive && v.data_version != data_version) {
        entry->verdicts.erase(it);
      } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        if (out != nullptr) *out = v.report;
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void StatementCache::InsertVerdict(const Key& key, uint64_t exec_fp,
                                   uint64_t data_version,
                                   ValidityReport report,
                                   std::vector<Value> args) {
  if (report.probe_budget_exhausted) return;  // sound once, never cached
  uint64_t ek = EntryKey(key.user, key.stmt_fp);
  Shard& shard = ShardFor(ek);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = UpsertEntry(shard, ek, key);
  if (entry.verdicts.size() >= kMaxVariants &&
      entry.verdicts.find(exec_fp) == entry.verdicts.end()) {
    entry.verdicts.erase(entry.verdicts.begin());
  }
  CachedVerdict v;
  v.report = std::move(report);
  v.data_version = data_version;
  v.params = key.params;
  v.args = std::move(args);
  entry.verdicts[exec_fp] = std::move(v);
}

void StatementCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
    shard.lru.clear();
  }
}

std::vector<StatementCache::ShardStats> StatementCache::SnapshotShards()
    const {
  std::vector<ShardStats> out;
  out.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    ShardStats s;
    s.shard = i;
    s.entries = shard.entries.size();
    s.hits = shard.hits.load(std::memory_order_relaxed);
    s.misses = shard.misses.load(std::memory_order_relaxed);
    s.evictions = shard.evictions.load(std::memory_order_relaxed);
    s.invalidations = shard.invalidations.load(std::memory_order_relaxed);
    s.collisions = shard.collisions.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

size_t StatementCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace fgac::core
