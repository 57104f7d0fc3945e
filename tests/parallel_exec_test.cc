// Tests for the morsel-driven parallel execution layer: the thread pool,
// ParallelExecutePlan vs the serial engines on generated and hand-written
// queries at several thread counts, morsel coverage, and the serial
// fallback for non-parallelizable shapes.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include "algebra/binder.h"
#include "algebra/reference_eval.h"
#include "common/thread_pool.h"
#include "common/value.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/parallel.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "storage/relation.h"
#include "storage/table_data.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::ThreadPool;
using fgac::testing::QueryGenerator;
using fgac::testing::SortedRowsToString;

TEST(ThreadPoolTest, DestructorRunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // every queued task runs before the workers are joined
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);  // must not hang
}

TEST(ThreadPoolTest, SubmitRunsDetachedTask) {
  std::promise<int> done;
  ThreadPool pool(1);  // declared last: joined before `done` is destroyed
  pool.Submit([&done] { done.set_value(42); });
  EXPECT_EQ(done.get_future().get(), 42);
}

TEST(ThreadPoolTest, ZeroRequestedThreadsClampsToOne) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_threads(), 1u);
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 1);
}

// The pool's one queue is session-fair: while a gate task holds the only
// worker, two sessions queue four tasks each; once the gate opens the
// worker pops them in weighted-round-robin order (session 2 has weight 3).
TEST(ThreadPoolTest, WorkersDrainSessionsInWeightedRoundRobinOrder) {
  std::promise<void> gate_started;
  std::promise<void> gate;
  std::promise<void> finished;
  std::string order;  // appended to by the one worker only
  int ran = 0;
  auto record = [&order, &ran, &finished](const std::string& name) {
    order += order.empty() ? name : " " + name;
    // Signalled from the 8th task: reading `order` any earlier races.
    if (++ran == 8) finished.set_value();
  };
  // Declared last, so it is joined before anything its tasks touch dies.
  ThreadPool pool(1);
  pool.Submit([&gate_started, open = gate.get_future().share()] {
    gate_started.set_value();
    open.wait();
  });
  gate_started.get_future().wait();
  for (int i = 1; i <= 4; ++i) {
    pool.Submit([&record, i] { record("a" + std::to_string(i)); },
                /*session=*/1, /*weight=*/1);
  }
  for (int i = 1; i <= 4; ++i) {
    pool.Submit([&record, i] { record("b" + std::to_string(i)); },
                /*session=*/2, /*weight=*/3);
  }
  EXPECT_EQ(pool.queue_depth(), 8u);
  EXPECT_EQ(pool.sessions_active(), 2u);
  gate.set_value();
  finished.get_future().wait();
  EXPECT_EQ(order, "a1 b1 b2 b3 a2 b4 a3 a4");
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small NULL-heavy university fixture (mirrors exec_chunk_test so the
    // query generator sweeps identical territory) plus a larger fact/dim
    // pair seeded directly into storage so scans span multiple morsels.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      create table students (
        student-id varchar not null primary key,
        name varchar,
        type varchar
      );
      create table courses (
        course-id varchar not null primary key,
        name varchar
      );
      create table registered (
        student-id varchar not null,
        course-id varchar not null,
        primary key (student-id, course-id)
      );
      create table grades (
        student-id varchar not null,
        course-id varchar not null,
        grade double,
        primary key (student-id, course-id)
      );
      insert into students values
        ('11', 'alice', 'fulltime'),
        ('12', 'bob', 'fulltime'),
        ('13', 'carol', 'parttime'),
        ('14', 'dave', 'parttime'),
        ('15', null, 'fulltime'),
        ('16', 'frank', null),
        ('17', null, null);
      insert into courses values
        ('cs101', 'intro programming'),
        ('cs202', 'databases'),
        ('ee150', null);
      insert into registered values
        ('11', 'cs101'), ('11', 'cs202'), ('12', 'cs101'), ('12', 'ee150'),
        ('13', 'cs202'), ('15', 'cs101'), ('16', 'ee150'), ('17', 'cs202');
      insert into grades values
        ('11', 'cs101', 4.0),
        ('12', 'cs101', 3.0),
        ('11', 'cs202', 3.5),
        ('13', 'cs202', 2.0),
        ('15', 'cs101', null),
        ('16', 'ee150', null),
        ('17', 'cs202', null);
      create table fact (k varchar not null, v double, tag varchar);
      create table dim (k varchar not null primary key, label varchar);
    )sql")
                    .ok());

    // kFactRows > 4 * kMorselSize so a 4-thread scan has morsels to fight
    // over. Values are integral doubles: SUM/AVG stay exact and thus
    // order-independent across partitions.
    std::vector<Row> fact_rows;
    fact_rows.reserve(kFactRows);
    for (size_t i = 0; i < kFactRows; ++i) {
      Row r;
      r.push_back(Value::String("k" + std::to_string(i % 64)));
      if (i % 97 == 0) {
        r.push_back(Value::Null());
      } else {
        r.push_back(Value::Double(static_cast<double>(i % 100)));
      }
      r.push_back(Value::String("t" + std::to_string(i % 3)));
      fact_rows.push_back(std::move(r));
    }
    db_.state().GetMutableTable("fact")->InsertRows(std::move(fact_rows));

    std::vector<Row> dim_rows;
    for (int i = 0; i < 64; ++i) {
      dim_rows.push_back({Value::String("k" + std::to_string(i)),
                          Value::String("label" + std::to_string(i))});
    }
    db_.state().GetMutableTable("dim")->InsertRows(std::move(dim_rows));
  }

  algebra::PlanPtr MustBind(const std::string& sql) {
    auto stmt = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    algebra::Binder binder(db_.catalog(), {});
    auto plan = binder.BindSelect(*stmt.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\nsql: " << sql;
    return plan.value();
  }

  // The binder leaves join predicates in a Select above a cross join; the
  // optimizer's pushdown turns them into equi-join keys, which is what the
  // shared-build parallel hash join keys off. Optimize like Database does.
  algebra::PlanPtr Optimized(const algebra::PlanPtr& plan) {
    auto row_count = [this](const std::string& table) -> double {
      const storage::TableData* t = db_.state().GetTable(table);
      return t != nullptr ? static_cast<double>(t->num_rows()) : 0.0;
    };
    auto best = optimizer::Optimize(plan, optimizer::ExpandOptions{}, row_count);
    EXPECT_TRUE(best.ok()) << best.status().ToString();
    return best.ok() ? best.value().plan : plan;
  }

  void ExpectParallelMatchesSerial(const std::string& sql,
                                   bool expect_parallel) {
    algebra::PlanPtr plan = Optimized(MustBind(sql));
    EXPECT_EQ(exec::IsParallelizable(plan, db_.state()), expect_parallel)
        << "sql: " << sql;
    auto serial = exec::ExecutePlan(plan, db_.state());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\nsql: " << sql;
    for (size_t threads : {2u, 4u}) {
      auto parallel = exec::ParallelExecutePlan(plan, db_.state(), threads);
      ASSERT_TRUE(parallel.ok())
          << parallel.status().ToString() << "\nsql: " << sql;
      ASSERT_TRUE(parallel.value().MultisetEquals(serial.value()))
          << "mismatch at " << threads << " threads\nsql: " << sql
          << "\nserial:\n" << SortedRowsToString(serial.value())
          << "parallel:\n" << SortedRowsToString(parallel.value());
    }
  }

  static constexpr size_t kFactRows = 5000;
  core::Database db_;
};

// The headline differential: the 1200-query generator sweep, each query
// executed through ParallelExecutePlan at 1, 2 and 4 threads and compared
// against the row-at-a-time reference evaluator.
TEST_F(ParallelExecTest, GeneratedQueriesAgreeAcrossThreadCounts) {
  int executed = 0;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    QueryGenerator gen(seed);
    for (int i = 0; i < 40; ++i) {
      std::string sql = gen.NextQuery();
      auto stmt = sql::Parser::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\nsql: " << sql;
      algebra::Binder binder(db_.catalog(), {});
      auto plan = binder.BindSelect(*stmt.value());
      if (!plan.ok()) {
        // The generator can produce ambiguous references; skip those.
        ASSERT_EQ(plan.status().code(), StatusCode::kBindError)
            << plan.status().ToString() << "\nsql: " << sql;
        continue;
      }
      auto reference = algebra::ReferenceEval(plan.value(), db_.state());
      ASSERT_TRUE(reference.ok())
          << reference.status().ToString() << "\nsql: " << sql;
      for (size_t threads : {1u, 2u, 4u}) {
        auto parallel =
            exec::ParallelExecutePlan(plan.value(), db_.state(), threads);
        ASSERT_TRUE(parallel.ok())
            << parallel.status().ToString() << "\nsql: " << sql;
        ASSERT_TRUE(parallel.value().MultisetEquals(reference.value()))
            << "engine mismatch at " << threads << " threads\nsql: " << sql
            << "\nreference:\n" << SortedRowsToString(reference.value())
            << "parallel:\n" << SortedRowsToString(parallel.value());
      }
      // Optimized plans carry equi-keys on join nodes, so this leg is what
      // actually routes generated joins through the shared-build parallel
      // hash join (raw bound plans fall back to serial for joins).
      algebra::PlanPtr best = Optimized(plan.value());
      auto opt_parallel = exec::ParallelExecutePlan(best, db_.state(), 4);
      ASSERT_TRUE(opt_parallel.ok())
          << opt_parallel.status().ToString() << "\nsql: " << sql;
      ASSERT_TRUE(opt_parallel.value().MultisetEquals(reference.value()))
          << "optimized-plan mismatch\nsql: " << sql
          << "\nreference:\n" << SortedRowsToString(reference.value())
          << "parallel:\n" << SortedRowsToString(opt_parallel.value());
      ++executed;
    }
  }
  EXPECT_GE(executed, 1000) << "generator rejected too many queries";
}

// Multi-morsel shapes over the 5000-row fact table: every parallelized
// operator (morsel scan, filter, project, shared-build join, partial
// aggregation, distinct, sort) against the serial engine.
TEST_F(ParallelExecTest, LargeTableShapesMatchSerial) {
  const char* kQueries[] = {
      "select k, v from fact where v >= 50.0",
      "select k, v, tag from fact where tag = 't1' and v < 25.0",
      "select f.k, d.label, f.v from fact f, dim d "
      "where f.k = d.k and f.v < 10.0",
      "select k, count(*), min(v), max(v) from fact group by k",
      "select count(*) from fact",
      "select count(v) from fact",
      "select sum(v), avg(v) from fact",
      "select tag, sum(v) from fact group by tag",
      "select distinct tag from fact",
      "select distinct k from fact where v is null",
      "select k, v from fact where v > 95.0 order by 1",
      "select count(distinct k) from fact",
  };
  for (const char* sql : kQueries) {
    ExpectParallelMatchesSerial(sql, /*expect_parallel=*/true);
  }
}

// Thousands of groups through the per-task partials and their merge: the
// rows, and their order (sorted by key), equal the serial engine's at
// every thread count. Grades are multiples of 0.5, so AVG is exact in any
// merge order.
TEST_F(ParallelExecTest, ManyGroupsMatchSerialRowForRow) {
  constexpr int kStudents = 3000;
  std::vector<Row> rows;
  for (int i = 0; i < kStudents; ++i) {
    int s = i * 7 % kStudents;  // scattered across morsels
    for (int c = 0; c < 2; ++c) {
      rows.push_back({Value::String("s" + std::to_string(s)),
                      Value::String("c" + std::to_string(c)),
                      Value::Double(0.5 * ((s + c) % 9))});
    }
  }
  db_.state().GetMutableTable("grades")->InsertRows(std::move(rows));
  auto render = [](const storage::Relation& rel) {
    std::string out;
    for (const Row& r : rel.rows()) out += RowToString(r) + "\n";
    return out;
  };
  algebra::PlanPtr plan = Optimized(MustBind(
      "select student-id, avg(grade) from grades group by student-id"));
  auto serial = exec::ExecutePlan(plan, db_.state());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial.value().num_rows(), static_cast<size_t>(kStudents));
  for (size_t threads : {1u, 2u, 4u}) {
    auto parallel = exec::ParallelExecutePlan(plan, db_.state(), threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(render(parallel.value()), render(serial.value()))
        << "at " << threads << " threads";
  }
}

// A morsel claimed by one thread must never be seen by another: total
// coverage comes out exactly once. COUNT(*) at several thread counts is a
// direct witness (any double- or under-scan shifts the count).
TEST_F(ParallelExecTest, MorselScanCoversEveryRowExactlyOnce) {
  algebra::PlanPtr plan = MustBind("select count(*) from fact");
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    auto r = exec::ParallelExecutePlan(plan, db_.state(), threads);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().num_rows(), 1u);
    EXPECT_EQ(r.value().rows()[0][0],
              Value::Int(static_cast<int64_t>(kFactRows)))
        << "at " << threads << " threads";
  }
}

// Shapes the parallel executor must hand to the serial engine untouched.
TEST_F(ParallelExecTest, SerialFallbackShapes) {
  // VALUES source: nothing to fan out.
  ExpectParallelMatchesSerial("select 1", /*expect_parallel=*/false);
  // LIMIT root: inherently serial early-out.
  algebra::PlanPtr limited = MustBind("select k from fact limit 10");
  EXPECT_FALSE(exec::IsParallelizable(limited, db_.state()));
  auto serial = exec::ExecutePlan(limited, db_.state());
  auto parallel = exec::ParallelExecutePlan(limited, db_.state(), 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel.value().MultisetEquals(serial.value()));
}

// Errors must surface identically: a predicate that divides by zero on
// some row fails the query regardless of which thread hits the row.
TEST_F(ParallelExecTest, RuntimeErrorsSurfaceFromWorkerThreads) {
  algebra::PlanPtr plan = MustBind("select k from fact where v / 0 > 1.0");
  auto serial = exec::ExecutePlan(plan, db_.state());
  ASSERT_FALSE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    auto parallel = exec::ParallelExecutePlan(plan, db_.state(), threads);
    ASSERT_FALSE(parallel.ok()) << "at " << threads << " threads";
    EXPECT_EQ(parallel.status().code(), serial.status().code());
  }
}

// End-to-end through the Database facade: the parallelism option and the
// per-session override must not change any result.
TEST_F(ParallelExecTest, DatabaseParallelismKnobPreservesResults) {
  const std::string sql = "select k, count(*), sum(v) from fact group by k";
  auto serial = db_.ExecuteAsAdmin(sql);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  db_.options().parallelism = 4;
  auto parallel = db_.ExecuteAsAdmin(sql);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(
      parallel.value().relation.MultisetEquals(serial.value().relation));

  // Session override takes precedence over the database default.
  db_.options().parallelism = 1;
  core::SessionContext ctx("admin");
  ctx.set_mode(core::EnforcementMode::kNone);
  ctx.set_exec_parallelism(4);
  auto overridden = db_.Execute(sql, ctx);
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_TRUE(
      overridden.value().relation.MultisetEquals(serial.value().relation));
}

}  // namespace
}  // namespace fgac
