// Fault-injection-driven tests: error paths that are unreachable from SQL
// alone. Each test arms a named site compiled into the engine (storage
// rebuild, hash-join build, validity probes, pipeline tasks, morsel
// claims) and asserts the failure unwinds as a clean Status — no crash, no
// hang, no half-written state.
//
// Sites exist only when NDEBUG is undefined (Debug / sanitizer builds) or
// the build sets -DFGAC_FAULT_INJECTION=ON; elsewhere the whole suite
// skips.

#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::FaultInjector;
using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::compiled_in()) {
      GTEST_SKIP() << "fault-injection sites not compiled into this build";
    }
    FaultInjector::Instance().Reset();
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on costudentgrades to 11;"
                                  "grant select on myregistrations to 11")
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

TEST_F(FaultInjectionTest, InjectorIsDeterministic) {
  auto& fi = FaultInjector::Instance();
  auto run = [&fi] {
    fi.Reset();
    fi.FailWithProbability("det.site", 0.5, /*seed=*/42);
    std::vector<bool> pattern;
    for (int i = 0; i < 32; ++i) pattern.push_back(!fi.Hit("det.site").ok());
    return pattern;
  };
  EXPECT_EQ(run(), run());

  fi.Reset();
  fi.FailOnHit("nth.site", /*nth=*/3);
  EXPECT_TRUE(fi.Hit("nth.site").ok());
  EXPECT_TRUE(fi.Hit("nth.site").ok());
  EXPECT_FALSE(fi.Hit("nth.site").ok());
  // Fires once, then disarms.
  EXPECT_TRUE(fi.Hit("nth.site").ok());
  EXPECT_EQ(fi.HitCount("nth.site"), 4u);
}

TEST_F(FaultInjectionTest, HashJoinBuildFailurePropagates) {
  FaultInjector::Instance().FailOnHit("exec.hash_join.build");
  auto r = db_.Execute(
      "select g.grade from grades g, students s "
      "where g.student-id = s.student-id",
      Admin());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fault injected"), std::string::npos);
  // The table is intact afterwards.
  auto again = db_.Execute("select * from grades", Admin());
  EXPECT_TRUE(again.ok());
}

TEST_F(FaultInjectionTest, FailedValidityProbeFailsClosed) {
  // Example 4.4: conditional validity hinges on C3 database probes. A
  // probe that dies mid-flight counts as EMPTY, so the query is rejected —
  // an infrastructure fault must narrow access, never widen it.
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  const std::string q = "select * from grades where course-id = 'cs101'";
  db_.options().enable_validity_cache = false;

  auto healthy = db_.Execute(q, ctx);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();

  FaultInjector::Instance().FailWithProbability("validity.probe", 1.0,
                                                /*seed=*/1);
  auto faulted = db_.Execute(q, ctx);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kNotAuthorized);

  FaultInjector::Instance().Disarm("validity.probe");
  auto recovered = db_.Execute(q, ctx);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

TEST_F(FaultInjectionTest, CallbackCancelsAtExactMorselBoundary) {
  // OnHit turns a site into a deterministic trigger: cancel the session
  // the moment the 8th morsel is claimed — no sleeps, no racing clocks.
  GrowStudents(20000);
  auto token = std::make_shared<std::atomic<bool>>(false);
  FaultInjector::Instance().OnHit(
      "parallel.morsel", [token] { token->store(true); }, /*nth=*/8);
  SessionContext ctx = Admin();
  ctx.set_exec_parallelism(4);
  ctx.set_cancel_token(token);
  auto r = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GE(FaultInjector::Instance().HitCount("parallel.morsel"), 8u);
}

TEST_F(FaultInjectionTest, MorselClaimFailureDrainsPeers) {
  GrowStudents(20000);
  FaultInjector::Instance().FailOnHit("parallel.morsel", /*nth=*/5);
  SessionContext ctx = Admin();
  ctx.set_exec_parallelism(4);
  auto r = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fault injected"), std::string::npos);
}

TEST_F(FaultInjectionTest, FailedProbeLandsInAuditLogAndTrace) {
  // Observability must capture the failure path, not only happy paths: a
  // validity probe killed mid-flight has to show up in the statement's
  // audit event (fail-closed rejection) AND in its span tree.
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  ctx.set_trace(true);
  ctx.set_trace_id(1001);
  db_.options().enable_validity_cache = false;
  FaultInjector::Instance().FailWithProbability("validity.probe", 1.0,
                                                /*seed=*/1);
  auto r = db_.Execute("select * from grades where course-id = 'cs101'", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAuthorized);

  db_.audit_log().Flush();
  std::vector<common::AuditEvent> tail = db_.audit_log().SnapshotRetained();
  ASSERT_FALSE(tail.empty());
  const common::AuditEvent& ev = tail.back();
  EXPECT_EQ(ev.user, "11");
  EXPECT_EQ(ev.verdict, "rejected");
  EXPECT_EQ(ev.status, "not_authorized");
  EXPECT_FALSE(ev.error.empty());
  EXPECT_EQ(ev.trace_id, 1001u);

  bool saw_validity_span = false;
  for (const common::TraceSpan& s : db_.tracer().Snapshot()) {
    if (s.trace_id != 1001u) continue;
    if (s.name == "validity.check" || s.name == "validity.probe_batch") {
      saw_validity_span = true;
    }
    EXPECT_NE(s.name, "exec") << "rejected query must not reach execution";
  }
  EXPECT_TRUE(saw_validity_span);
}

TEST_F(FaultInjectionTest, MorselFaultLandsInAuditLogAndWorkerSpans) {
  GrowStudents(20000);
  FaultInjector::Instance().FailOnHit("parallel.morsel", /*nth=*/5);
  SessionContext ctx = Admin();
  ctx.set_exec_parallelism(4);
  ctx.set_trace(true);
  ctx.set_trace_id(1002);
  auto r = db_.Execute("select * from students", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fault injected"), std::string::npos);

  db_.audit_log().Flush();
  std::vector<common::AuditEvent> tail = db_.audit_log().SnapshotRetained();
  ASSERT_FALSE(tail.empty());
  const common::AuditEvent& ev = tail.back();
  // The verdict records the enforcement decision (an unenforced admin
  // statement); the failure itself lands in status/error.
  EXPECT_EQ(ev.verdict, "none");
  EXPECT_NE(ev.status, "ok");
  EXPECT_NE(ev.error.find("fault injected"), std::string::npos);
  EXPECT_EQ(ev.trace_id, 1002u);

  // Every worker recorded its span on the way down — including the one
  // that hit the fault, whose detail carries the error.
  size_t workers = 0;
  bool saw_error_detail = false;
  for (const common::TraceSpan& s : db_.tracer().Snapshot()) {
    if (s.trace_id != 1002u || s.name != "exec.worker") continue;
    ++workers;
    if (s.detail.find("error=") != std::string::npos) saw_error_detail = true;
  }
  EXPECT_EQ(workers, 4u);
  EXPECT_TRUE(saw_error_detail);
}

TEST_F(FaultInjectionTest, ProbabilisticFaultStormNeverHangs) {
  // Sustained 30% failure across every site: queries fail or succeed, but
  // the engine always returns and later recovers completely.
  GrowStudents(4000);
  auto& fi = FaultInjector::Instance();
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  db_.options().enable_validity_cache = false;
  const char* sites[] = {"exec.hash_join.build", "validity.probe",
                         "pipeline.run", "parallel.morsel"};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const char* site : sites) fi.FailWithProbability(site, 0.3, seed);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SessionContext run = ctx;
      run.set_exec_parallelism(threads);
      auto r =
          db_.Execute("select * from grades where course-id = 'cs101'", run);
      if (!r.ok()) {
        EXPECT_FALSE(r.status().message().empty());
      }
    }
  }
  fi.Reset();
  auto recovered =
      db_.Execute("select * from grades where course-id = 'cs101'", ctx);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

}  // namespace
}  // namespace fgac
