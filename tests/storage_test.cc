#include "storage/database_state.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "exec/chunk.h"
#include "exec/key_table.h"
#include "storage/relation.h"

namespace fgac::storage {
namespace {

Row R(int64_t a, const std::string& b) {
  return {Value::Int(a), Value::String(b)};
}

TEST(RelationTest, MultisetEqualityIgnoresOrder) {
  Relation a({"x", "y"});
  a.AddRow(R(1, "a"));
  a.AddRow(R(2, "b"));
  Relation b({"u", "v"});  // names irrelevant
  b.AddRow(R(2, "b"));
  b.AddRow(R(1, "a"));
  EXPECT_TRUE(a.MultisetEquals(b));
}

TEST(RelationTest, MultisetEqualityCountsDuplicates) {
  Relation a({"x"});
  a.AddRow({Value::Int(1)});
  a.AddRow({Value::Int(1)});
  Relation b({"x"});
  b.AddRow({Value::Int(1)});
  EXPECT_FALSE(a.MultisetEquals(b));
  b.AddRow({Value::Int(1)});
  EXPECT_TRUE(a.MultisetEquals(b));
}

TEST(RelationTest, SortedRowsDeterministic) {
  Relation a({"x", "y"});
  a.AddRow(R(2, "b"));
  a.AddRow(R(1, "z"));
  a.AddRow(R(1, "a"));
  auto sorted = a.SortedRows();
  EXPECT_EQ(sorted[0][0], Value::Int(1));
  EXPECT_EQ(sorted[0][1], Value::String("a"));
  EXPECT_EQ(sorted[2][0], Value::Int(2));
}

TEST(RelationTest, ToStringRendersTable) {
  Relation a({"x", "name"});
  a.AddRow(R(1, "alice"));
  std::string s = a.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("'alice'"), std::string::npos);
  EXPECT_NE(s.find("(1 rows)"), std::string::npos);
}

TEST(TableDataTest, InsertAndErase) {
  TableData t(2);
  t.Insert(R(1, "a"));
  t.Insert(R(2, "b"));
  t.Insert(R(3, "c"));
  t.EraseIndices({0, 2});
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.GetRow(0)[0], Value::Int(2));
}

TEST(TableDataTest, EraseEmptyIsNoop) {
  TableData t(2);
  t.Insert(R(1, "a"));
  t.EraseIndices({});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableDataTest, EveryMutationBumpsVersion) {
  TableData t(2);
  uint64_t v = t.version();
  t.Insert(R(1, "a"));
  EXPECT_GT(t.version(), v);
  v = t.version();
  t.InsertRows({R(2, "b"), R(3, "c")});
  EXPECT_GT(t.version(), v);
  v = t.version();
  t.UpdateRow(0, R(9, "z"));
  EXPECT_GT(t.version(), v);
  v = t.version();
  t.EraseIndices({1});
  EXPECT_GT(t.version(), v);
  v = t.version();
  t.ReplaceAllRows({R(5, "e")});
  EXPECT_GT(t.version(), v);
  // A mutation after a scan still bumps — the cached-verdict staleness bug
  // was exactly a write path that skipped this counter.
  exec::DataChunk chunk;
  Result<size_t> scanned = t.ScanChunk(0, 100, &chunk);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*scanned, 1u);
  v = t.version();
  t.EraseIndices({0});
  EXPECT_GT(t.version(), v);
}

TEST(TableDataTest, ScanChunkIsSafeFromConcurrentReaders) {
  // Many threads scan one table at once. Reads copy out of the columns and
  // write nothing, so concurrent readers share no mutable state; TSan in CI
  // checks that this stays true.
  constexpr size_t kRows = 4096;
  constexpr size_t kThreads = 8;
  TableData t(2);
  std::vector<Row> rows;
  for (size_t i = 0; i < kRows; ++i)
    rows.push_back(R(static_cast<int64_t>(i), "r"));
  t.InsertRows(rows);

  std::atomic<size_t> total{0};
  std::atomic<bool> torn{0};
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&t, &total, &torn] {
      size_t seen = 0;
      exec::DataChunk chunk;
      for (size_t start = 0; start < kRows; start += 512) {
        Result<size_t> scanned = t.ScanChunk(start, 512, &chunk);
        if (!scanned.ok()) {
          torn.store(true);
          break;
        }
        size_t n = *scanned;
        seen += n;
        for (size_t i = 0; i < n; ++i) {
          if (chunk.GetRow(i)[0] != Value::Int(static_cast<int64_t>(start + i)))
            torn.store(true);
        }
      }
      total.fetch_add(seen);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), kRows * kThreads);
  EXPECT_FALSE(torn.load());
}

TEST(TableDataTest, MatchesRowModelUnderRandomMutations) {
  // Differential: the column store against a plain vector of rows, over
  // random inserts, updates, deletes and replacements with NULLs, narrow
  // rows (padded with NULLs) and kind changes that degrade a column to
  // generic storage. After every step each row and a full chunked scan
  // equal the model, and the version has grown.
  constexpr size_t kWidth = 3;
  std::mt19937 rng(20261018);
  TableData t(kWidth);
  std::vector<Row> model;
  auto random_value = [&](size_t c) {
    uint32_t roll = rng() % 64;
    if (roll < 8) return Value::Null();
    if (roll == 8) return Value::Bool(true);  // kind change
    int64_t n = static_cast<int64_t>(rng() % 100);
    if (c == 0) return Value::Int(n);
    if (c == 1) return Value::Double(static_cast<double>(n) / 4);
    std::string s = "s";
    s += std::to_string(n);
    return Value::String(s);
  };
  auto random_row = [&] {
    size_t width = rng() % 8 == 0 ? rng() % kWidth : kWidth;
    Row row;
    for (size_t c = 0; c < width; ++c) row.push_back(random_value(c));
    return row;
  };
  auto padded = [](Row row) {
    row.resize(kWidth, Value::Null());
    return row;
  };
  bool saw_generic = false;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t version = t.version();
    uint32_t op = model.empty() ? 0 : rng() % 40;
    if (op < 12) {
      Row row = random_row();
      model.push_back(padded(row));
      t.Insert(row);
    } else if (op < 20) {
      std::vector<Row> rows(rng() % 4);
      for (Row& row : rows) {
        row = random_row();
        model.push_back(padded(row));
      }
      t.InsertRows(rows);
    } else if (op < 30) {
      size_t i = rng() % model.size();
      Row row = random_row();
      model[i] = padded(row);
      t.UpdateRow(i, row);
    } else if (op < 39) {
      std::vector<size_t> doomed;
      for (size_t i = 0; i < model.size(); ++i) {
        if (rng() % 4 == 0) doomed.push_back(i);
      }
      if (doomed.empty()) doomed.push_back(rng() % model.size());
      for (size_t k = doomed.size(); k-- > 0;) {
        model.erase(model.begin() + static_cast<ptrdiff_t>(doomed[k]));
      }
      t.EraseIndices(doomed);
    } else {
      std::vector<Row> rows(rng() % 6);
      for (Row& row : rows) row = random_row();
      model.clear();
      for (const Row& row : rows) model.push_back(padded(row));
      t.ReplaceAllRows(rows);
    }
    ASSERT_GT(t.version(), version) << "step " << step;
    ASSERT_EQ(t.num_rows(), model.size()) << "step " << step;
    for (size_t i = 0; i < model.size(); ++i) {
      // RowToString tells kinds apart (3 vs 3.0), which == does not.
      ASSERT_EQ(RowToString(t.GetRow(i)), RowToString(model[i]))
          << "step " << step << " row " << i;
    }
    exec::DataChunk chunk;
    size_t scanned = 0;
    for (size_t start = 0; start < model.size(); start += 7) {
      Result<size_t> n = t.ScanChunk(start, 7, &chunk);
      ASSERT_TRUE(n.ok());
      ASSERT_EQ(chunk.num_columns(), kWidth);
      for (size_t k = 0; k < *n; ++k) {
        ASSERT_EQ(RowToString(chunk.GetRow(k)), RowToString(model[start + k]))
            << "step " << step << " row " << start + k;
      }
      scanned += *n;
    }
    ASSERT_EQ(scanned, model.size()) << "step " << step;
    for (size_t c = 0; c < kWidth; ++c) {
      saw_generic |= t.column(c).tag() == exec::ColumnVector::Tag::kGeneric;
    }
  }
  EXPECT_TRUE(saw_generic);
}

// The key index answers exactly what a full scan of the key columns does:
// for every stored key (and a few absent ones) FindKey returns the
// positions, ascending, whose key equals it under CompareKeyAt.
void ExpectIndexMatchesScan(const TableData& t, const std::vector<Row>& extra,
                            const std::string& step) {
  const std::vector<size_t>& cols = t.key_columns();
  std::vector<Row> keys = extra;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    Row key;
    for (size_t c : cols) key.push_back(t.GetRow(i)[c]);
    keys.push_back(std::move(key));
  }
  for (const Row& key : keys) {
    std::vector<exec::ColumnVector> probe(cols.size());
    for (size_t k = 0; k < cols.size(); ++k) probe[k].Append(key[k]);
    exec::Selection scanned;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      bool equal = true;
      for (size_t k = 0; equal && k < cols.size(); ++k) {
        equal = exec::CompareKeyAt(t.column(cols[k]), i, probe[k], 0) == 0;
      }
      if (equal) scanned.push_back(static_cast<uint32_t>(i));
    }
    exec::Selection found;
    ASSERT_TRUE(t.FindKey(probe, 0, &found)) << step;
    ASSERT_EQ(found, scanned) << step << ": key " << RowToString(key);
  }
}

TEST(KeyIndexTest, PositionsEqualAFullScanAfterEveryMutator) {
  TableData t(2, {0});
  const std::vector<Row> absent = {{Value::Int(99)}, {Value::String("a")}};
  auto check = [&](const std::string& step) {
    ExpectIndexMatchesScan(t, absent, step);
  };
  for (int64_t k = 1; k <= 40; ++k) t.Insert(R(k, "v"));
  check("inserts");
  t.InsertRows({R(41, "w"), R(42, "w")});
  check("bulk insert");
  t.UpdateRow(4, R(140, "v"));  // the key changes
  check("update of the key");
  t.UpdateRow(5, R(6, "changed"));  // the key stays
  check("update keeping the key");
  t.Insert(R(7, "dup"));  // a direct write bypasses uniqueness
  t.Insert(R(7, "dup again"));
  t.UpdateRow(10, R(7, "third"));
  check("duplicate keys");
  t.EraseIndices({0});
  check("delete of the first row");
  t.EraseIndices({t.num_rows() / 2});
  check("delete of a middle row");
  t.EraseIndices({t.num_rows() - 1});
  check("delete of the last row");
  t.EraseIndices({1, 2, 6, 7, 8});
  check("delete of several rows");
  // 3.0 equals 3; the double row degrades the key column to generic.
  t.Insert({Value::Double(3.0), Value::String("d")});
  t.Insert({Value::Null(), Value::String("n")});
  t.Insert({Value::Null(), Value::String("n2")});
  check("mixed kinds and NULL keys");
  std::vector<size_t> all(t.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  t.EraseIndices(all);
  EXPECT_EQ(t.num_rows(), 0u);
  check("delete of every row");
  t.ReplaceAllRows({R(1, "a"), R(2, "b"), R(1, "c")});
  check("replace all rows");
  t.Insert(R(2, "after replace"));
  check("insert after replace");
}

TEST(KeyIndexTest, CompositeKeyFollowsRandomMutations) {
  // Small value domains make duplicates, NULLs and kind changes frequent;
  // after every mutation each stored key's positions equal a scan's.
  std::mt19937 rng(20261020);
  TableData t(3, {2, 0});
  auto value = [&](size_t c) {
    uint32_t roll = rng() % 16;
    if (roll == 0) return Value::Null();
    if (c == 0 && roll == 1) return Value::Double(static_cast<double>(rng() % 4));
    if (c == 0) return Value::Int(static_cast<int64_t>(rng() % 4));
    std::string s = "k";
    s += std::string(rng() % 3, 'k');
    return Value::String(s);
  };
  auto row = [&] { return Row{value(0), value(1), value(2)}; };
  const std::vector<Row> absent = {{Value::String("none"), Value::Int(0)}};
  for (int step = 0; step < 400; ++step) {
    uint32_t op = t.num_rows() == 0 ? 0 : rng() % 10;
    if (op < 4) {
      t.Insert(row());
    } else if (op < 5) {
      t.InsertRows({row(), row(), row()});
    } else if (op < 8) {
      t.UpdateRow(rng() % t.num_rows(), row());
    } else if (op < 9) {
      std::vector<size_t> doomed;
      for (size_t i = 0; i < t.num_rows(); ++i) {
        if (rng() % 5 == 0) doomed.push_back(i);
      }
      t.EraseIndices(doomed);
    } else {
      t.ReplaceAllRows({row(), row()});
    }
    ExpectIndexMatchesScan(t, absent, "step " + std::to_string(step));
  }
}

// Int(2^53 + 1) equals Double(2^53) under CompareKeyAt (the int widens to
// double) but HashInt hashes it as an int, so the index refuses a probe
// whose hash may differ from a key it equals, and the caller scans.
TEST(KeyIndexTest, RefusesProbesWhoseHashMayDisagreeWithEquality) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  TableData t(2, {0});
  t.Insert({Value::Int(kTwo53 + 1), Value::String("int")});
  t.Insert({Value::Double(static_cast<double>(kTwo53)), Value::String("dbl")});
  t.Insert({Value::Int(5), Value::String("five")});
  for (const Value& v :
       {Value::Int(kTwo53 + 1), Value::Double(static_cast<double>(kTwo53)),
        Value::Double(-1e300), Value::Int(INT64_MAX)}) {
    std::vector<exec::ColumnVector> probe(1);
    probe[0].Append(v);
    exec::Selection found;
    EXPECT_FALSE(t.FindKey(probe, 0, &found)) << v.ToString();
    EXPECT_TRUE(found.empty()) << v.ToString();
  }
  // An int the double holds exactly, or a smaller double, is answered.
  auto find = [&t](const Value& v) {
    std::vector<exec::ColumnVector> probe(1);
    probe[0].Append(v);
    exec::Selection found;
    EXPECT_TRUE(t.FindKey(probe, 0, &found)) << v.ToString();
    return found;
  };
  EXPECT_EQ(find(Value::Int(kTwo53)), exec::Selection{1});
  EXPECT_EQ(find(Value::Double(5.0)), exec::Selection{2});
  EXPECT_TRUE(find(Value::Double(std::nan(""))).empty());
}

TEST(KeyIndexTest, StateCreatesTheIndexFromKeyColumns) {
  DatabaseState state;
  ASSERT_TRUE(state.CreateTable("keyed", 2, {1}).ok());
  ASSERT_TRUE(state.CreateTable("plain", 2).ok());
  EXPECT_EQ(state.GetTable("keyed")->key_columns(), std::vector<size_t>{1});
  EXPECT_TRUE(state.GetTable("plain")->key_columns().empty());
  state.GetMutableTable("keyed")->Insert(R(1, "a"));
  state.GetMutableTable("plain")->Insert(R(1, "a"));
  std::vector<exec::ColumnVector> probe(1);
  probe[0].Append(Value::String("a"));
  exec::Selection found;
  EXPECT_TRUE(state.GetTable("keyed")->FindKey(probe, 0, &found));
  EXPECT_EQ(found, exec::Selection{0});
  found.clear();
  EXPECT_FALSE(state.GetTable("plain")->FindKey(probe, 0, &found));
  EXPECT_TRUE(found.empty());
  // A clone carries its own index.
  DatabaseState copy = state.Clone();
  copy.GetMutableTable("keyed")->Insert(R(2, "a"));
  found.clear();
  EXPECT_TRUE(copy.GetTable("keyed")->FindKey(probe, 0, &found));
  EXPECT_EQ(found, (exec::Selection{0, 1}));
  found.clear();
  EXPECT_TRUE(state.GetTable("keyed")->FindKey(probe, 0, &found));
  EXPECT_EQ(found, exec::Selection{0});
}

TEST(DatabaseStateTest, DataVersionCoversAllTablesAndDrops) {
  DatabaseState state;
  ASSERT_TRUE(state.CreateTable("a", 2).ok());
  ASSERT_TRUE(state.CreateTable("b", 2).ok());
  uint64_t v0 = state.DataVersion();
  state.GetMutableTable("a")->Insert(R(1, "x"));
  uint64_t v1 = state.DataVersion();
  EXPECT_GT(v1, v0);
  state.GetMutableTable("b")->InsertRows({R(2, "y"), R(3, "z")});
  uint64_t v2 = state.DataVersion();
  EXPECT_GT(v2, v1);
  // Dropping a table must not let the aggregate version move backwards
  // (a lower version would resurrect stale cached verdicts).
  ASSERT_TRUE(state.DropTable("b").ok());
  EXPECT_GE(state.DataVersion(), v2);
}

TEST(DatabaseStateTest, CreateDropAndLookup) {
  DatabaseState state;
  ASSERT_TRUE(state.CreateTable("t", 2).ok());
  EXPECT_FALSE(state.CreateTable("t", 2).ok());
  EXPECT_TRUE(state.HasTable("t"));
  EXPECT_NE(state.GetTable("t"), nullptr);
  EXPECT_EQ(state.GetTable("nosuch"), nullptr);
  ASSERT_TRUE(state.DropTable("t").ok());
  EXPECT_FALSE(state.HasTable("t"));
}

TEST(DatabaseStateTest, CloneIsDeep) {
  DatabaseState state;
  ASSERT_TRUE(state.CreateTable("t", 2).ok());
  state.GetMutableTable("t")->Insert(R(1, "a"));
  DatabaseState copy = state.Clone();
  copy.GetMutableTable("t")->Insert(R(2, "b"));
  EXPECT_EQ(state.GetTable("t")->num_rows(), 1u);
  EXPECT_EQ(copy.GetTable("t")->num_rows(), 2u);
  EXPECT_EQ(state.TotalRows(), 1u);
}

TEST(DatabaseStateTest, LayerShadowsItsOwnTablesAndReadsThroughTheRest) {
  DatabaseState base;
  ASSERT_TRUE(base.CreateTable("t", 2).ok());
  ASSERT_TRUE(base.CreateTable("u", 2).ok());
  base.GetMutableTable("t")->Insert(R(1, "a"));
  const uint64_t base_version = base.DataVersion();
  DatabaseState layer(&base);
  ASSERT_TRUE(layer.CreateTable("t", 2).ok());
  layer.GetMutableTable("t")->ReplaceAllRows({R(2, "b"), R(3, "c")});
  EXPECT_EQ(layer.GetTable("t")->num_rows(), 2u);
  EXPECT_EQ(layer.GetTable("u"), base.GetTable("u"));
  EXPECT_TRUE(layer.HasTable("u"));
  // The layer never writes its base.
  EXPECT_EQ(layer.GetMutableTable("u"), nullptr);
  EXPECT_EQ(base.GetTable("t")->num_rows(), 1u);
  EXPECT_EQ(base.DataVersion(), base_version);
}

}  // namespace
}  // namespace fgac::storage
