// Chaos sweep (overload protection under fire): an 8-client differential
// workload against a database with admission limits, a global memory
// budget and every fault-injection site armed at low probability. The
// invariants are the robustness contract of the engine:
//   - no hangs (ctest timeout), no crashes;
//   - every query either returns the exact reference answer or fails
//     closed with a clean, expected Status code;
//   - every shed query produced an audit event with verdict "shed";
//   - the global memory account drains to zero once the storm passes
//     (no leaks; table storage is not charged).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/database.h"
#include "exec/admission.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::FaultInjector;
using core::Database;
using core::DatabaseOptions;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;
using fgac::testing::SortedRowsToString;

struct ChaosQuery {
  std::string sql;
  EnforcementMode mode;
  std::string user;
  /// Sorted-row rendering of the fault-free answer (filled in setup).
  std::string expected;
};

bool FailClosedCode(StatusCode code) {
  switch (code) {
    case StatusCode::kTimeout:
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
    case StatusCode::kOverloaded:
    case StatusCode::kNotAuthorized:   // probe failures fail closed
    case StatusCode::kInternal:        // injected faults surface as internal
    case StatusCode::kExecutionError:
      return true;
    default:
      return false;
  }
}

TEST(ChaosTest, EightClientSweepFailsClosedOnly) {
  DatabaseOptions opts;
  opts.parallelism = 4;  // exercise the DAG/pipeline fault sites
  opts.admission.max_concurrent = 2;
  opts.admission.max_queue = 2;
  // Tight enough that concurrent transient state occasionally trips it.
  opts.memory.hard_limit_bytes = 1u << 14;
  // The sweep must be able to account every shed: size the audit ring so
  // nothing is dropped.
  opts.audit.ring_capacity = 1u << 14;
  opts.audit.retain_events = 1u << 15;
  fgac::testing::ApplyNightlyArtifactOptions(&opts, "chaos_test");
  Database db(opts);
  SetupUniversity(&db);
  CreateUniversityViews(&db);
  ASSERT_TRUE(db.ExecuteScript("grant select on mygrades to 11;"
                               "grant select on costudentgrades to 11;"
                               "grant select on myregistrations to 11")
                  .ok());
  ASSERT_TRUE(db.catalog().SetTrumanView("grades", "mygrades").ok());

  std::vector<ChaosQuery> queries = {
      {"select name from students where type = 'fulltime'",
       EnforcementMode::kNone, "admin", ""},
      {"select s.name, r.course-id from students s, registered r "
       "where s.student-id = r.student-id",
       EnforcementMode::kNone, "admin", ""},
      {"select course-id, avg(grade) from grades group by course-id",
       EnforcementMode::kNone, "admin", ""},
      {"select grade from grades where student-id = '11'",
       EnforcementMode::kNonTruman, "11", ""},
      {"select student-id, course-id from registered "
       "where student-id = '11'",
       EnforcementMode::kNonTruman, "11", ""},
  };
  auto make_ctx = [](const ChaosQuery& q, uint32_t weight) {
    SessionContext ctx(q.user);
    ctx.set_mode(q.mode);
    ctx.set_scheduler_weight(weight);
    return ctx;
  };
  // Reference pass, single-threaded and fault-free: the answers every
  // chaos-run success must reproduce bit-for-bit.
  for (ChaosQuery& q : queries) {
    auto r = db.Execute(q.sql, make_ctx(q, 1));
    ASSERT_TRUE(r.ok()) << q.sql << ": " << r.status().ToString();
    q.expected = SortedRowsToString(r.value().relation);
  }

  FaultInjector::Instance().Reset();
  if (FaultInjector::compiled_in()) {
    uint64_t seed = 12345;
    for (const char* site :
         {"scheduler.dispatch", "pipeline.run", "parallel.morsel",
          "exec.hash_join.build", "validity.probe", "memory.charge",
          "admission.enqueue"}) {
      FaultInjector::Instance().FailWithProbability(site, 0.02, seed++);
    }
  }

  constexpr int kClients = 8;
  constexpr int kItersPerClient = 25;
  std::atomic<uint64_t> sheds{0};
  std::atomic<uint64_t> successes{0};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto note_failure = [&](std::string msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(msg));
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kItersPerClient; ++i) {
        const ChaosQuery& q = queries[(c + i) % queries.size()];
        SessionContext ctx =
            make_ctx(q, static_cast<uint32_t>(c % 3 + 1));
        auto r = db.Execute(q.sql, ctx);
        if (r.ok()) {
          successes.fetch_add(1);
          std::string got = SortedRowsToString(r.value().relation);
          if (got != q.expected) {
            note_failure("wrong answer for '" + q.sql + "':\n got " + got +
                         "\n want " + q.expected);
          }
        } else {
          StatusCode code = r.status().code();
          if (code == StatusCode::kOverloaded) sheds.fetch_add(1);
          if (!FailClosedCode(code)) {
            note_failure("unexpected failure code for '" + q.sql +
                         "': " + r.status().ToString());
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  FaultInjector::Instance().Reset();

  for (const std::string& f : failures) ADD_FAILURE() << f;

  // Every shed query must have left an audit record with verdict "shed";
  // nothing may have been dropped (the ring was sized for the sweep).
  db.audit_log().Flush();
  ASSERT_EQ(db.audit_log().events_dropped(), 0u);
  uint64_t shed_events = 0;
  for (const auto& ev : db.audit_log().SnapshotRetained()) {
    if (ev.verdict == "shed") ++shed_events;
  }
  EXPECT_EQ(shed_events, sheds.load());

  // Quiesced, fault-free: every query answers exactly again.
  for (const ChaosQuery& q : queries) {
    auto r = db.Execute(q.sql, make_ctx(q, 1));
    ASSERT_TRUE(r.ok()) << q.sql << ": " << r.status().ToString();
    EXPECT_EQ(SortedRowsToString(r.value().relation), q.expected) << q.sql;
  }
  // The account holds query-time state only, so with no statement running
  // it is empty: every charge of the storm was released, nothing leaked.
  EXPECT_EQ(db.memory_tracker().used(), 0u);

  // The sweep must actually have exercised the engine, not just shed
  // everything at the door.
  EXPECT_GT(successes.load(), 0u);

  fgac::testing::DumpMetricsArtifact(&db, "chaos_test");
}

}  // namespace
}  // namespace fgac
