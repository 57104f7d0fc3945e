#include "storage/database_state.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/chunk.h"
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
  EXPECT_EQ(t.rows()[0][0], Value::Int(2));
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
  // A mutation after a scan (which rebuilds the columnar snapshot) still
  // bumps — the cached-verdict staleness bug was exactly a write path that
  // skipped this counter.
  exec::DataChunk chunk;
  Result<size_t> scanned = t.ScanChunk(0, 100, &chunk);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*scanned, 1u);
  v = t.version();
  t.EraseIndices({0});
  EXPECT_GT(t.version(), v);
}

TEST(TableDataTest, ScanChunkIsSafeFromConcurrentReaders) {
  // Regression for the lazy columnar-rebuild race: many threads hit a dirty
  // table at once; the double-checked rebuild must hand every one of them a
  // consistent snapshot. Run under TSan in CI to catch the data race.
  constexpr size_t kRows = 4096;
  constexpr size_t kThreads = 8;
  TableData t(2);
  std::vector<Row> rows;
  for (size_t i = 0; i < kRows; ++i)
    rows.push_back(R(static_cast<int64_t>(i), "r"));
  t.InsertRows(std::move(rows));  // leaves the columnar snapshot dirty

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
