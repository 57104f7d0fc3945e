// Overload-protection subsystem tests: the MemoryTracker global account,
// QueryGuard forwarding into it, the AdmissionController's queue/shed/
// deadline/shutdown behaviour, the thread pool's session-fair queue,
// and the end-to-end Database wiring (shed queries audited as
// "shed", hard memory limits aborting queries fail-closed, memory
// pressure degrading Non-Truman checks per policy).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/memory_tracker.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "exec/admission.h"
#include "storage/table_data.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::DegradePolicy;
using common::FairTaskQueue;
using common::FaultInjector;
using common::MemoryTracker;
using common::QueryGuard;
using common::QueryLimits;
using core::Database;
using core::DatabaseOptions;
using core::EnforcementMode;
using core::SessionContext;
using exec::AdmissionController;
using exec::AdmissionOptions;
using exec::AdmissionRequest;
using exec::AdmissionTicket;
using exec::RetryAfterHintMs;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

MemoryTracker::Limits Limits(uint64_t soft, uint64_t hard) {
  MemoryTracker::Limits l;
  l.soft_limit_bytes = soft;
  l.hard_limit_bytes = hard;
  return l;
}

// ---------------------------------------------------------------------------
// MemoryTracker
// ---------------------------------------------------------------------------

TEST(MemoryTrackerTest, ChargeReleaseAndHighWater) {
  MemoryTracker tracker;
  EXPECT_TRUE(tracker.Charge(100).ok());
  EXPECT_TRUE(tracker.Charge(50).ok());
  EXPECT_EQ(tracker.used(), 150u);
  tracker.Release(60);
  EXPECT_EQ(tracker.used(), 90u);
  EXPECT_EQ(tracker.high_water(), 150u);
  tracker.Release(90);
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_EQ(tracker.high_water(), 150u);
  EXPECT_EQ(tracker.charges_denied(), 0u);
  EXPECT_FALSE(tracker.overloaded());
}

TEST(MemoryTrackerTest, HardLimitDeniesAndRollsBack) {
  MemoryTracker tracker(Limits(0, 100));
  EXPECT_TRUE(tracker.Charge(80).ok());
  Status denied = tracker.Charge(21);
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  // Nothing from the denied charge sticks.
  EXPECT_EQ(tracker.used(), 80u);
  EXPECT_EQ(tracker.charges_denied(), 1u);
  // Exactly at the limit is allowed.
  EXPECT_TRUE(tracker.Charge(20).ok());
  EXPECT_EQ(tracker.used(), 100u);
}

TEST(MemoryTrackerTest, SoftLimitFlagsOverload) {
  MemoryTracker tracker(Limits(100, 0));
  EXPECT_TRUE(tracker.Charge(100).ok());
  EXPECT_FALSE(tracker.overloaded());
  EXPECT_TRUE(tracker.Charge(1).ok());  // soft limit never fails the charge
  EXPECT_TRUE(tracker.overloaded());
  tracker.Release(1);
  EXPECT_FALSE(tracker.overloaded());
}

TEST(MemoryTrackerTest, FaultSiteMemoryCharge) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled into this build";
  }
  FaultInjector::Instance().Reset();
  MemoryTracker tracker;
  FaultInjector::Instance().FailOnHit("memory.charge");
  Status injected = tracker.Charge(10);
  EXPECT_FALSE(injected.ok());
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_EQ(tracker.charges_denied(), 1u);
  EXPECT_TRUE(tracker.Charge(10).ok());
  FaultInjector::Instance().Reset();
}

// ---------------------------------------------------------------------------
// QueryGuard -> MemoryTracker forwarding
// ---------------------------------------------------------------------------

TEST(GuardTrackerTest, ForwardsAndReleasesOnDestruction) {
  MemoryTracker tracker;
  {
    QueryGuard guard;
    guard.set_memory_tracker(&tracker);
    EXPECT_TRUE(guard.ChargeBytes(1000).ok());
    EXPECT_EQ(tracker.used(), 1000u);
  }
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_EQ(tracker.high_water(), 1000u);
}

TEST(GuardTrackerTest, ChildInheritsTrackerAndReleasesOwnCharges) {
  MemoryTracker tracker;
  QueryGuard parent;
  parent.set_memory_tracker(&tracker);
  EXPECT_TRUE(parent.ChargeBytes(100).ok());
  {
    QueryGuard child(QueryLimits{}, &parent);
    EXPECT_TRUE(child.ChargeBytes(50).ok());
    EXPECT_EQ(tracker.used(), 150u);
  }
  // The child's charge drains with the child; the parent's survives.
  EXPECT_EQ(tracker.used(), 100u);
}

TEST(GuardTrackerTest, TrackerHardLimitSurfacesAsResourceExhausted) {
  MemoryTracker tracker(Limits(0, 100));
  QueryGuard guard;  // per-query budget unlimited
  guard.set_memory_tracker(&tracker);
  EXPECT_TRUE(guard.ChargeBytes(100).ok());
  EXPECT_EQ(guard.ChargeBytes(1).code(), StatusCode::kResourceExhausted);
  // The denied charge is in neither account.
  EXPECT_EQ(tracker.used(), 100u);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, UnlimitedAdmitsImmediately) {
  AdmissionController ac(AdmissionOptions{});
  std::vector<AdmissionTicket> tickets(8);
  for (auto& t : tickets) {
    EXPECT_TRUE(ac.Admit(AdmissionRequest{}, &t).ok());
    EXPECT_TRUE(t.held());
  }
  EXPECT_EQ(ac.admitted(), 8u);
  EXPECT_EQ(ac.running(), 8u);
  tickets.clear();
  EXPECT_EQ(ac.running(), 0u);
}

TEST(AdmissionTest, QueueGrantsFifoWhenSlotFrees) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController ac(opts);
  AdmissionTicket first;
  ASSERT_TRUE(ac.Admit(AdmissionRequest{}, &first).ok());

  Status queued_status;
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    AdmissionTicket t;
    queued_status = ac.Admit(AdmissionRequest{}, &t);
    admitted.store(true);
  });
  while (ac.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());
  first.Release();
  waiter.join();
  EXPECT_TRUE(queued_status.ok());
  EXPECT_EQ(ac.admitted(), 2u);
  EXPECT_EQ(ac.queue_depth_high_water(), 1u);
}

TEST(AdmissionTest, FullQueueShedsNewestWithRetryAfter) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 0;
  AdmissionController ac(opts);
  AdmissionTicket first;
  ASSERT_TRUE(ac.Admit(AdmissionRequest{}, &first).ok());
  AdmissionTicket second;
  Status shed = ac.Admit(AdmissionRequest{}, &second);
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  EXPECT_FALSE(second.held());
  EXPECT_GE(RetryAfterHintMs(shed), 1);
  EXPECT_EQ(ac.shed_queue_full(), 1u);
}

TEST(AdmissionTest, ExpiredDeadlineRejectedBeforeWork) {
  AdmissionController ac(AdmissionOptions{});
  AdmissionRequest req;
  req.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);
  AdmissionTicket t;
  Status s = ac.Admit(req, &t);
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(ac.rejected_deadline(), 1u);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(AdmissionTest, DeadlineExpiresWhileQueued) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController ac(opts);
  AdmissionTicket slot;
  ASSERT_TRUE(ac.Admit(AdmissionRequest{}, &slot).ok());
  AdmissionRequest req;
  req.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  AdmissionTicket t;
  Status s = ac.Admit(req, &t);
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(ac.rejected_deadline(), 1u);
  // The expired waiter left a tombstone, not a queue slot.
  slot.Release();
  AdmissionTicket next;
  EXPECT_TRUE(ac.Admit(AdmissionRequest{}, &next).ok());
}

TEST(AdmissionTest, CancelledGuardLeavesQueue) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController ac(opts);
  AdmissionTicket slot;
  ASSERT_TRUE(ac.Admit(AdmissionRequest{}, &slot).ok());
  QueryGuard guard;
  Status queued_status;
  std::thread waiter([&] {
    AdmissionRequest req;
    req.guard = &guard;
    AdmissionTicket t;
    queued_status = ac.Admit(req, &t);
  });
  while (ac.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  guard.Cancel();
  waiter.join();
  EXPECT_EQ(queued_status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ac.cancelled(), 1u);
}

TEST(AdmissionTest, ShutdownDrainsWaitersWithCancelled) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController ac(opts);
  AdmissionTicket slot;
  ASSERT_TRUE(ac.Admit(AdmissionRequest{}, &slot).ok());
  Status queued_status;
  std::thread waiter([&] {
    AdmissionTicket t;
    queued_status = ac.Admit(AdmissionRequest{}, &t);
  });
  while (ac.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ac.Shutdown();
  waiter.join();
  EXPECT_EQ(queued_status.code(), StatusCode::kCancelled);
  EXPECT_GE(ac.cancelled(), 1u);
  // Admission after shutdown fails the same way.
  AdmissionTicket t;
  EXPECT_EQ(ac.Admit(AdmissionRequest{}, &t).code(), StatusCode::kCancelled);
}

TEST(AdmissionTest, MemoryPressureShedsArrivals) {
  MemoryTracker tracker(Limits(100, 0));
  AdmissionController ac(AdmissionOptions{}, &tracker);
  ASSERT_TRUE(tracker.Charge(200).ok());
  AdmissionTicket t;
  Status shed = ac.Admit(AdmissionRequest{}, &t);
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  EXPECT_GE(RetryAfterHintMs(shed), 1);
  EXPECT_EQ(ac.shed_memory(), 1u);
  // Pressure drains -> arrivals flow again.
  tracker.Release(150);
  EXPECT_TRUE(ac.Admit(AdmissionRequest{}, &t).ok());
}

TEST(AdmissionTest, RetryAfterHintParsing) {
  EXPECT_EQ(RetryAfterHintMs(Status::Overloaded(
                "server overloaded (queue full); retry after 42ms")),
            42);
  EXPECT_EQ(RetryAfterHintMs(Status::Overloaded("no hint here")), -1);
  EXPECT_EQ(RetryAfterHintMs(Status::OK()), -1);
}

TEST(AdmissionTest, EnqueueFaultSite) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled into this build";
  }
  FaultInjector::Instance().Reset();
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController ac(opts);
  AdmissionTicket slot;
  ASSERT_TRUE(ac.Admit(AdmissionRequest{}, &slot).ok());
  FaultInjector::Instance().FailOnHit("admission.enqueue");
  AdmissionTicket t;
  Status s = ac.Admit(AdmissionRequest{}, &t);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_GE(FaultInjector::Instance().HitCount("admission.enqueue"), 1u);
  FaultInjector::Instance().Reset();
}

TEST(AdmissionTest, EnvQueueOverride) {
  ASSERT_EQ(setenv("FGAC_ADMISSION_QUEUE", "7", /*overwrite=*/1), 0);
  AdmissionOptions opts;
  opts.max_queue = 64;
  EXPECT_EQ(opts.Resolved().max_queue, 7u);
  unsetenv("FGAC_ADMISSION_QUEUE");
  EXPECT_EQ(opts.Resolved().max_queue, 64u);
}

// ---------------------------------------------------------------------------
// FairTaskQueue (the pool's session-fair queue)
// ---------------------------------------------------------------------------

TEST(FairTaskQueueTest, WeightedRoundRobinPattern) {
  FairTaskQueue q;
  std::vector<std::string> order;
  for (int i = 1; i <= 8; ++i) {
    q.Push(/*session=*/1, /*weight=*/1,
           [&order, i] { order.push_back("a" + std::to_string(i)); });
  }
  for (int i = 1; i <= 8; ++i) {
    q.Push(/*session=*/2, /*weight=*/3,
           [&order, i] { order.push_back("b" + std::to_string(i)); });
  }
  EXPECT_EQ(q.size(), 16u);
  EXPECT_EQ(q.sessions_active(), 2u);
  std::function<void()> task;
  while (q.Pop(&task)) task();
  const std::vector<std::string> expected = {
      "a1", "b1", "b2", "b3", "a2", "b4", "b5", "b6",
      "a3", "b7", "b8", "a4", "a5", "a6", "a7", "a8"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.sessions_active(), 0u);
}

TEST(FairTaskQueueTest, SessionRejoinsRotationAfterDraining) {
  FairTaskQueue q;
  int runs = 0;
  q.Push(7, 1, [&] { ++runs; });
  std::function<void()> task;
  ASSERT_TRUE(q.Pop(&task));
  task();
  EXPECT_FALSE(q.Pop(&task));
  q.Push(7, 1, [&] { ++runs; });
  ASSERT_TRUE(q.Pop(&task));
  task();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(q.sessions_active(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end Database wiring
// ---------------------------------------------------------------------------

TEST(OverloadEndToEndTest, ShedQueryIsAuditedAsShed) {
  DatabaseOptions opts;
  opts.admission.max_concurrent = 1;
  opts.admission.max_queue = 0;
  Database db(opts);
  SetupUniversity(&db);

  // Occupy the single admission slot so the next SELECT is shed.
  AdmissionTicket slot;
  ASSERT_TRUE(db.admission().Admit(AdmissionRequest{}, &slot).ok());
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  auto shed = db.Execute("select name from students", admin);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(RetryAfterHintMs(shed.status()), 1);

  db.audit_log().Flush();
  auto events = db.audit_log().SnapshotRetained();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().verdict, "shed");
  EXPECT_EQ(events.back().status, "overloaded");

  // Capacity frees -> same query succeeds.
  slot.Release();
  auto ok = db.Execute("select name from students", admin);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(OverloadEndToEndTest, HardMemoryLimitAbortsQuery) {
  DatabaseOptions opts;
  opts.memory.hard_limit_bytes = 1024;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("create table big (a varchar not null "
                               "primary key, b varchar not null)")
                  .ok());
  // Direct storage writes (like the benches) so loading itself never scans.
  std::vector<Row> rows;
  for (int i = 0; i < 512; ++i) {
    rows.push_back({Value::String("k" + std::to_string(i)),
                    Value::String("payload")});
  }
  db.state().GetMutableTable("big")->InsertRows(std::move(rows));

  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  // A scan charges nothing; the sort charges its buffered input.
  auto r = db.Execute("select a, b from big order by a", admin);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(db.memory_tracker().charges_denied(), 1u);
  // The aborted query's charges must not leak into the account.
  EXPECT_EQ(db.memory_tracker().used(), 0u);
}

TEST(OverloadEndToEndTest, SoftMemoryLimitShedsArrivals) {
  DatabaseOptions opts;
  opts.memory.soft_limit_bytes = 1;
  Database db(opts);
  SetupUniversity(&db);
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  // Nothing stays charged after a query, so an idle database admits.
  auto first = db.Execute("select name from students", admin);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(db.memory_tracker().overloaded());
  // State held past the soft limit (as an in-flight query's would be)...
  ASSERT_TRUE(db.memory_tracker().Charge(2).ok());
  ASSERT_TRUE(db.memory_tracker().overloaded());
  // ...sheds the next arrival with a retry-after hint.
  auto second = db.Execute("select name from students", admin);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(RetryAfterHintMs(second.status()), 1);
  EXPECT_GE(db.admission().shed_memory(), 1u);
  // Once the state drains, arrivals run again.
  db.memory_tracker().Release(2);
  auto third = db.Execute("select name from students", admin);
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(OverloadEndToEndTest, MemoryPressureDegradesNonTrumanToTruman) {
  DatabaseOptions opts;
  // The whole-check memo budget: the first expansion pass blows it, so a
  // Non-Truman check exhausts memory instead of finishing.
  opts.validity.check_max_memory_bytes = 64;
  opts.enable_validity_cache = false;
  Database db(opts);
  SetupUniversity(&db);
  CreateUniversityViews(&db);
  ASSERT_TRUE(db.ExecuteScript("grant select on mygrades to 11").ok());
  ASSERT_TRUE(db.catalog().SetTrumanView("grades", "mygrades").ok());

  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);

  // A strictly-stronger selection than the view: goal-directed search
  // cannot prove it at seed time, so the subsumption proof needs memo
  // expansion — which is exactly what the budget denies.
  const std::string q =
      "select grade from grades where student-id = '11' and grade > 3.0";

  // Without a degrade policy the blown budget fails closed.
  auto rejected = db.Execute(q, ctx);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // With DegradePolicy::kTruman the same pressure degrades to the
  // (filtered) Truman answer instead.
  QueryLimits limits;
  limits.degrade_policy = DegradePolicy::kTruman;
  ctx.set_query_limits(limits);
  auto degraded = db.Execute(q, ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value().degraded_to_truman);
  // Truman slice: user 11's own grades above 3.0 (4.0 and 3.5).
  EXPECT_EQ(degraded.value().relation.num_rows(), 2u);
}

TEST(OverloadEndToEndTest, MetricsExportContainsOverloadGauges) {
  Database db;
  SetupUniversity(&db);
  std::string json = db.ExportMetricsJson();
  for (const char* key :
       {"memory.used", "memory.high_water", "memory.charges_denied",
        "admission.admitted", "admission.queue_depth", "admission.running",
        "admission.shed_queue_full", "admission.shed_memory",
        "thread_pool.queue_depth", "scheduler.fair_sessions_active"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing gauge " << key;
  }
}

TEST(OverloadEndToEndTest, SessionWeightClampsAndParallelQueriesRun) {
  SessionContext ctx("11");
  EXPECT_EQ(ctx.scheduler_weight(), 1u);
  ctx.set_scheduler_weight(0);  // 0 clamps to 1: a session is never starved
  EXPECT_EQ(ctx.scheduler_weight(), 1u);
  ctx.set_scheduler_weight(4);
  EXPECT_EQ(ctx.scheduler_weight(), 4u);

  // A weighted session's parallel plan routes through the fair queue and
  // still produces exact results.
  Database db;
  SetupUniversity(&db);
  ctx.set_mode(EnforcementMode::kNone);
  ctx.set_exec_parallelism(4);
  auto r = db.Execute(
      "select name from students where type = 'fulltime'", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().relation.num_rows(), 2u);
}

}  // namespace
}  // namespace fgac
