// Tests for the pipeline scheduler layer: DAG ordering and first-error-wins
// cancellation in PipelineScheduler, inter-query interleaving of two
// sessions' pipelines on one pool, deadline trips mid-DAG, scheduler fault
// sites, validity probes as scheduler tasks, and a multi-client
// differential sweep against serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/query_guard.h"
#include "common/trace.h"
#include "core/database.h"
#include "exec/scheduler.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::FaultInjector;
using common::QueryLimits;
using common::TraceSpan;
using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using exec::PipelineScheduler;
using exec::PipelineTaskSet;
using fgac::testing::CreateUniversityViews;
using fgac::testing::MustQuery;
using fgac::testing::SetupUniversity;
using fgac::testing::SortedRowsToString;

// ---------------------------------------------------------------------------
// PipelineScheduler unit behaviour
// ---------------------------------------------------------------------------

TEST(PipelineSchedulerTest, DependenciesCompleteBeforeDependentsStart) {
  PipelineScheduler& sched = PipelineScheduler::Shared();
  const uint64_t dags0 = sched.dags_executed();
  const uint64_t tasks0 = sched.tasks_dispatched();
  const uint64_t done0 = sched.pipelines_completed();

  std::atomic<int> builds_done{0};
  std::atomic<int> scans_done{0};
  std::atomic<bool> order_ok{true};
  std::vector<PipelineTaskSet> sets(3);
  // Two independent "build" pipelines...
  for (size_t s = 0; s < 2; ++s) {
    sets[s].tasks.push_back([&builds_done](size_t) {
      builds_done.fetch_add(1);
      return Status::OK();
    });
  }
  // ...gating a 4-task "scan" pipeline.
  sets[2].deps = {0, 1};
  for (size_t t = 0; t < 4; ++t) {
    sets[2].tasks.push_back([&builds_done, &scans_done, &order_ok](size_t) {
      if (builds_done.load() != 2) order_ok.store(false);
      scans_done.fetch_add(1);
      return Status::OK();
    });
  }
  Status st = sched.RunDag(std::move(sets), nullptr, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(order_ok.load()) << "a scan task started before its builds";
  EXPECT_EQ(builds_done.load(), 2);
  EXPECT_EQ(scans_done.load(), 4);
  EXPECT_EQ(sched.dags_executed(), dags0 + 1);
  EXPECT_EQ(sched.tasks_dispatched(), tasks0 + 6);
  EXPECT_EQ(sched.pipelines_completed(), done0 + 3);
}

TEST(PipelineSchedulerTest, RejectsNonTopologicalDag) {
  std::vector<PipelineTaskSet> sets(2);
  sets[0].deps = {1};  // forward edge: not topological
  sets[0].tasks.push_back([](size_t) { return Status::OK(); });
  sets[1].tasks.push_back([](size_t) { return Status::OK(); });
  Status st =
      PipelineScheduler::Shared().RunDag(std::move(sets), nullptr, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("topological"), std::string::npos);
}

TEST(PipelineSchedulerTest, FirstErrorCancelsDependentsWithoutStartingThem) {
  PipelineScheduler& sched = PipelineScheduler::Shared();
  const uint64_t cancelled0 = sched.pipelines_cancelled();

  std::atomic<bool> dependent_ran{false};
  std::vector<PipelineTaskSet> sets(2);
  sets[0].tasks.push_back(
      [](size_t) { return Status::ExecutionError("boom0"); });
  sets[1].deps = {0};
  sets[1].tasks.push_back([&dependent_ran](size_t) {
    dependent_ran.store(true);
    return Status::OK();
  });
  std::vector<char> started;
  Status st = sched.RunDag(std::move(sets), nullptr, nullptr, &started);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("boom0"), std::string::npos);
  EXPECT_FALSE(dependent_ran.load())
      << "a dependent of a failed pipeline must never start";
  ASSERT_EQ(started.size(), 2u);
  EXPECT_EQ(started[0], 1);
  EXPECT_EQ(started[1], 0);
  EXPECT_GE(sched.pipelines_cancelled(), cancelled0 + 1);
}

TEST(PipelineSchedulerTest, TrippedGuardCancelsDependentsMidDag) {
  // A dead guard stops every task at the scheduler's pre-task check (no
  // task body runs), aborts the DAG, and dependent pipelines are cancelled
  // without ever starting.
  PipelineScheduler& sched = PipelineScheduler::Shared();
  const uint64_t cancelled0 = sched.pipelines_cancelled();

  QueryLimits limits;
  limits.timeout = std::chrono::microseconds(1);
  common::QueryGuard guard(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::atomic<int> bodies{0};
  std::vector<PipelineTaskSet> sets(2);
  for (size_t t = 0; t < 4; ++t) {
    sets[0].tasks.push_back([&bodies](size_t) {
      bodies.fetch_add(1);
      return Status::OK();
    });
  }
  sets[1].deps = {0};
  sets[1].tasks.push_back([&bodies](size_t) {
    bodies.fetch_add(1);
    return Status::OK();
  });
  std::vector<char> started;
  Status st = sched.RunDag(std::move(sets), &guard, nullptr, &started);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_EQ(bodies.load(), 0);
  ASSERT_EQ(started.size(), 2u);
  EXPECT_EQ(started[0], 1);  // dispatched, every task failed its guard check
  EXPECT_EQ(started[1], 0);  // released after the abort: cancelled
  EXPECT_GE(sched.pipelines_cancelled(), cancelled0 + 1);
}

// ---------------------------------------------------------------------------
// End-to-end through the Database facade
// ---------------------------------------------------------------------------

class PipelineExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (FaultInjector::compiled_in()) FaultInjector::Instance().Reset();
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11;"
                                  "grant select on costudentgrades to 11;"
                                  "grant select on myregistrations to 11;"
                                  "grant select on mygrades to 12")
                    .ok());
  }

  void TearDown() override {
    if (FaultInjector::compiled_in()) FaultInjector::Instance().Reset();
  }

  static SessionContext Admin() {
    SessionContext ctx("admin");
    ctx.set_mode(EnforcementMode::kNone);
    return ctx;
  }

  static SessionContext NonTruman(const std::string& user) {
    SessionContext ctx(user);
    ctx.set_mode(EnforcementMode::kNonTruman);
    return ctx;
  }

  // Grows `students` to `n` synthetic rows so scan pipelines have morsels
  // to fight over (direct storage writes, like the benches).
  void GrowStudents(size_t n) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({Value::String("s" + std::to_string(i + 100)),
                      Value::String("name"), Value::String("fulltime")});
    }
    db_.state().GetMutableTable("students")->InsertRows(std::move(rows));
  }

  Database db_;
};

// The tentpole acceptance test: two queries from different sessions must
// demonstrably interleave on the one shared pool — some of their scan-task
// spans overlap in wall time.
TEST_F(PipelineExecTest, TwoSessionsPipelinesInterleaveOnSharedPool) {
  GrowStudents(60000);
  db_.options().parallelism = 2;
  const std::string sql =
      "select type, count(*) from students where name = 'name' group by type";

  bool overlapped = false;
  for (int attempt = 0; attempt < 8 && !overlapped; ++attempt) {
    db_.tracer().Clear();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    auto client = [&](uint64_t trace_id) {
      SessionContext ctx("admin");
      ctx.set_mode(EnforcementMode::kNone);
      ctx.set_trace(true);
      ctx.set_trace_id(trace_id);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto r = db_.Execute(sql, ctx);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    };
    std::thread a(client, 9001), b(client, 9002);
    while (ready.load() != 2) std::this_thread::yield();
    go.store(true);
    a.join();
    b.join();

    // Any pair of task spans from the two traces overlapping in time is
    // proof the two queries shared the pool rather than running back to
    // back.
    std::vector<TraceSpan> spans = db_.tracer().Snapshot();
    std::vector<const TraceSpan*> first, second;
    for (const TraceSpan& s : spans) {
      if (s.name != "exec.worker") continue;
      if (s.trace_id == 9001) first.push_back(&s);
      if (s.trace_id == 9002) second.push_back(&s);
    }
    EXPECT_FALSE(first.empty());
    EXPECT_FALSE(second.empty());
    for (const TraceSpan* x : first) {
      for (const TraceSpan* y : second) {
        int64_t lo = std::max(x->start_us, y->start_us);
        int64_t hi = std::min(x->start_us + static_cast<int64_t>(x->dur_us),
                              y->start_us + static_cast<int64_t>(y->dur_us));
        if (lo < hi) overlapped = true;
      }
    }
  }
  EXPECT_TRUE(overlapped)
      << "no overlapping scan-task spans across 8 attempts: queries are "
         "serializing instead of sharing the pool";
}

// An expired deadline surfaces as a clean kTimeout from the parallel
// aggregate path, and the next statement on the same database is healthy
// (no sticky scheduler or pool state).
TEST_F(PipelineExecTest, ExpiredDeadlineFailsParallelAggregateCleanly) {
  GrowStudents(20000);
  QueryLimits limits;
  limits.timeout = std::chrono::microseconds(1);
  SessionContext ctx = Admin();
  ctx.set_exec_parallelism(4);
  ctx.set_query_limits(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto r = db_.Execute("select type, count(*) from students group by type",
                       ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);

  SessionContext healthy = Admin();
  healthy.set_exec_parallelism(4);
  auto again =
      db_.Execute("select type, count(*) from students group by type", healthy);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

// A cancel token flipped at an exact morsel boundary — while the scan
// pipeline is mid-flight — must abort the DAG and cancel the dependent
// merge pipeline without starting it, observable as pipelines_cancelled
// advancing.
TEST_F(PipelineExecTest, CancelMidScanCancelsDependentMergePipeline) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault-injection sites not compiled into this build";
  }
  GrowStudents(20000);
  PipelineScheduler& sched = PipelineScheduler::Shared();
  const uint64_t cancelled0 = sched.pipelines_cancelled();

  auto token = std::make_shared<std::atomic<bool>>(false);
  FaultInjector::Instance().OnHit(
      "parallel.morsel", [token] { token->store(true); }, /*nth=*/2);
  SessionContext ctx = Admin();
  ctx.set_exec_parallelism(4);
  ctx.set_cancel_token(token);
  // Aggregate root: scan pipeline -> merge pipeline. The token trips after
  // the second claimed morsel, every later scan task fails its guard
  // check, and the merge must be cancelled rather than run on garbage
  // partials.
  auto r = db_.Execute("select type, count(*) from students group by type",
                       ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GE(sched.pipelines_cancelled(), cancelled0 + 1)
      << "the merge pipeline should have been cancelled, never started";

  FaultInjector::Instance().Reset();
  SessionContext healthy = Admin();
  healthy.set_exec_parallelism(4);
  auto again =
      db_.Execute("select type, count(*) from students group by type", healthy);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(PipelineExecTest, SchedulerDispatchFaultFailsQueryCleanly) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault-injection sites not compiled into this build";
  }
  GrowStudents(20000);
  SessionContext ctx = Admin();
  ctx.set_exec_parallelism(4);

  FaultInjector::Instance().FailOnHit("scheduler.dispatch");
  auto r = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fault injected"), std::string::npos);

  FaultInjector::Instance().Reset();
  FaultInjector::Instance().FailOnHit("pipeline.run", /*nth=*/3);
  auto r2 = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("fault injected"), std::string::npos);

  FaultInjector::Instance().Reset();
  auto recovered = db_.Execute("select * from students", ctx);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// Validity probes are first-class pipeline work: a multi-probe batch with
// probe_parallelism > 1 must run as scheduler tasks even when query
// execution itself is serial.
TEST_F(PipelineExecTest, ValidityProbeBatchesRunAsSchedulerTasks) {
  db_.options().parallelism = 1;
  db_.options().validity.probe_parallelism = 4;
  db_.options().enable_validity_cache = false;
  PipelineScheduler& sched = PipelineScheduler::Shared();
  const uint64_t dags0 = sched.dags_executed();
  const uint64_t tasks0 = sched.tasks_dispatched();

  // Example 4.4's conditional query: its first C3 batch has >= 2 probes
  // (see guardrails_test.ProbeBudgetExhaustionRejects).
  auto report = db_.CheckQueryValidity(
      "select * from grades where course-id = 'cs101'", NonTruman("11"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().valid);
  ASSERT_GE(report.value().c3_probes, 2u);
  EXPECT_GE(sched.dags_executed(), dags0 + 1)
      << "probe batch did not go through the pipeline scheduler";
  EXPECT_GE(sched.tasks_dispatched(), tasks0 + 2);
}

// Closed-loop differential sweep: concurrent clients with distinct
// enforcement modes and plans, every result compared against the serial
// answer computed up front. FGAC_STRESS_REPEAT scales the iteration count
// (CI's high-contention TSan config sets it to 20).
TEST_F(PipelineExecTest, ConcurrentClientsMatchSerialResults) {
  GrowStudents(8000);
  db_.options().parallelism = 4;

  struct Client {
    std::string user;
    EnforcementMode mode;
    std::string sql;
    std::string expect;
  };
  std::vector<Client> clients = {
      {"admin", EnforcementMode::kNone,
       "select type, count(*) from students group by type", ""},
      {"admin", EnforcementMode::kNone,
       "select g.grade, s.name from grades g, students s "
       "where g.student-id = s.student-id",
       ""},
      {"admin", EnforcementMode::kNone,
       "select distinct type from students", ""},
      {"11", EnforcementMode::kNonTruman, "select * from mygrades", ""},
      {"12", EnforcementMode::kNonTruman, "select * from mygrades", ""},
      {"admin", EnforcementMode::kNone,
       "select name from students where type = 'parttime' order by 1", ""},
      {"admin", EnforcementMode::kNone, "select count(*) from students", ""},
      {"11", EnforcementMode::kNonTruman,
       "select * from grades where course-id = 'cs101'", ""},
  };
  for (Client& c : clients) {
    SessionContext ctx(c.user);
    ctx.set_mode(c.mode);
    ctx.set_exec_parallelism(1);
    c.expect = SortedRowsToString(MustQuery(&db_, c.sql, ctx));
    ASSERT_FALSE(c.expect.empty()) << c.sql;
  }

  int repeat = 3;
  if (const char* env = std::getenv("FGAC_STRESS_REPEAT")) {
    repeat = std::max(1, std::atoi(env));
  }
  std::atomic<int> mismatches{0};
  auto run_client = [&](const Client& c) {
    for (int i = 0; i < repeat; ++i) {
      SessionContext ctx(c.user);
      ctx.set_mode(c.mode);
      ctx.set_exec_parallelism(4);
      auto r = db_.Execute(c.sql, ctx);
      if (!r.ok()) {
        ADD_FAILURE() << r.status().ToString() << "\nsql: " << c.sql;
        mismatches.fetch_add(1);
        return;
      }
      if (SortedRowsToString(r.value().relation) != c.expect) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (const Client& c : clients) threads.emplace_back(run_client, c);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace fgac
