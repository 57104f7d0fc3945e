// Live workload introspection: the fgac_sessions / fgac_activity /
// fgac_statement_cache system tables and their $user-scoped governance,
// the fgac_slow_queries view over the audit log, the stall watchdog, and
// the 8-thread churn sweep (tear-free snapshots + Prometheus export) that the
// TSan CI job leans on. The live-observation tests park a statement
// mid-flight on a fault-site hook and watch it from another session, so
// they run wherever the fault layer is compiled in.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/activity.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "core/database.h"
#include "core/watchdog.h"
#include "server/connection_manager.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::FaultInjector;
using core::Database;
using core::DatabaseOptions;
using core::EnforcementMode;
using core::SessionContext;
using server::ConnectionManager;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

int StressRepeat(int base) {
  if (const char* env = std::getenv("FGAC_STRESS_REPEAT")) {
    return std::max(1, std::atoi(env));
  }
  return base;
}

/// Blocks the thread that hits an armed fault site until Release(); the
/// test observes the parked statement from another session meanwhile.
class ParkingLot {
 public:
  /// The fault-site callback: flags "parked" and waits.
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }

  bool WaitParked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return parked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

class IntrospectionTest : public ::testing::Test {
 protected:
  IntrospectionTest() : db_(Options()) {}

  /// Deterministic fixture: the watchdog thread is off (tests that need it
  /// call SampleOnce).
  static DatabaseOptions Options() {
    DatabaseOptions opts;
    opts.watchdog.enabled = false;
    testing::ApplyNightlyArtifactOptions(&opts, "introspection_test");
    return opts;
  }

  void SetUp() override {
    FaultInjector::Instance().Reset();
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteScript("grant select on mygrades to 11;"
                                  "grant select on mygrades to 12")
                    .ok());
    ASSERT_TRUE(db_.catalog().SetTrumanView("grades", "mygrades").ok());
  }

  void TearDown() override {
    FaultInjector::Instance().Reset();
    testing::DumpMetricsArtifact(&db_, "introspection_test");
  }

  storage::Relation Admin(const std::string& sql) {
    return testing::MustQueryAdmin(&db_, sql);
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// Bootstrap + governance
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, BootstrapCreatesIntrospectionCatalog) {
  for (const char* table :
       {"fgac_sessions", "fgac_activity", "fgac_statement_cache"}) {
    EXPECT_NE(db_.catalog().GetTable(table), nullptr) << table;
  }
  for (const char* view :
       {"fgac_my_sessions", "fgac_my_activity", "fgac_sessions_all",
        "fgac_activity_all", "fgac_statement_cache_all"}) {
    EXPECT_NE(db_.catalog().GetView(view), nullptr) << view;
  }
  // Slow queries are a plain view over fgac_audit, not a table of their own.
  EXPECT_EQ(db_.catalog().GetTable("fgac_slow_queries"), nullptr);
  const catalog::ViewDefinition* slow =
      db_.catalog().GetView("fgac_slow_queries");
  ASSERT_NE(slow, nullptr);
  EXPECT_FALSE(slow->is_authorization);
}

TEST_F(IntrospectionTest, ScopedViewsGovernIntrospectionTables) {
  // Leave one completed statement per user in the registry via explicit
  // server sessions.
  ConnectionManager cm(db_);
  auto s11 = cm.Open("11", EnforcementMode::kTruman);
  auto s12 = cm.Open("12", EnforcementMode::kTruman);
  ASSERT_TRUE(s11->Execute("select grade from grades").ok());
  ASSERT_TRUE(s12->Execute("select grade from grades").ok());

  // Truman: a bare select on fgac_sessions narrows to the session user's
  // own rows.
  SessionContext t11("11");
  t11.set_mode(EnforcementMode::kTruman);
  auto own = db_.Execute("select user_name from fgac_sessions", t11);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  ASSERT_GE(own.value().relation.num_rows(), 1u);
  for (const Row& row : own.value().relation.rows()) {
    EXPECT_EQ(row[0], Value::String("11"));
  }

  // Non-Truman: the self-scoped query is authorized, the cross-user probe
  // is rejected outright.
  SessionContext n11("11");
  n11.set_mode(EnforcementMode::kNonTruman);
  EXPECT_TRUE(
      db_.Execute("select session_id from fgac_sessions where user_name = '11'",
                  n11)
          .ok());
  auto peek = db_.Execute(
      "select session_id from fgac_sessions where user_name = '12'", n11);
  ASSERT_FALSE(peek.ok());
  EXPECT_EQ(peek.status().code(), StatusCode::kNotAuthorized);

  // fgac_statement_cache has no per-user view at all: admin/auditor only.
  auto cache_truman = db_.Execute("select * from fgac_statement_cache", t11);
  EXPECT_FALSE(cache_truman.ok());
  auto cache_admin = Admin("select * from fgac_statement_cache_all");
  EXPECT_GE(cache_admin.num_rows(), 1u);

  // The fgac_ namespace stays read-only.
  auto mut = db_.ExecuteAsAdmin("insert into fgac_sessions values (1)");
  ASSERT_FALSE(mut.ok());
  EXPECT_EQ(mut.status().code(), StatusCode::kInvalidArgument);
  cm.CloseAll();
}

// ---------------------------------------------------------------------------
// fgac_sessions: server sessions and their counters
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, SessionsTableTracksServerSessions) {
  ConnectionManager cm(db_);
  auto s11 = cm.Open("11", EnforcementMode::kTruman);
  auto s12 = cm.Open("12", EnforcementMode::kTruman);
  ASSERT_TRUE(s11->Execute("select grade from grades").ok());
  ASSERT_TRUE(s11->Execute("select grade from grades").ok());

  // The observing admin statement registers its own implicit session, so
  // every assertion filters to the server sessions under test.
  auto rel = Admin(
      "select session_id, user_name, statements_run from fgac_sessions "
      "where user_name <> 'admin'");
  ASSERT_EQ(rel.num_rows(), 2u);
  bool saw11 = false, saw12 = false;
  for (const Row& row : rel.rows()) {
    if (row[1] == Value::String("11")) {
      saw11 = true;
      EXPECT_EQ(row[0], Value::String(s11->id()));
      EXPECT_EQ(row[2], Value::Int(2));
    }
    if (row[1] == Value::String("12")) {
      saw12 = true;
      EXPECT_EQ(row[2], Value::Int(0));
    }
  }
  EXPECT_TRUE(saw11);
  EXPECT_TRUE(saw12);

  // Closing a server session removes its row; the registry gauge follows.
  cm.Close(s12->id());
  EXPECT_EQ(Admin("select session_id from fgac_sessions "
                  "where user_name <> 'admin'")
                .num_rows(),
            1u);
  EXPECT_EQ(db_.activity().sessions_open(), 1u);
  cm.CloseAll();
  EXPECT_EQ(db_.activity().sessions_open(), 0u);
}

// ---------------------------------------------------------------------------
// Live observation: a statement parked mid-flight is visible, with the
// right principal and phase, from another session
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, ParkedExecStatementIsVisibleLive) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in";
  }
  ParkingLot lot;
  FaultInjector::Instance().OnHit("pipeline.run", lot.Hook());

  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  s->context().set_exec_parallelism(2);  // route through the scheduler
  const std::string q = "select grade from grades where course-id = 'cs101'";
  std::thread runner([&] {
    auto r = s->Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(lot.WaitParked(std::chrono::seconds(10)))
      << "statement never reached the scheduler fault site";

  // Observe from the admin side: correct principal, statement, and phase.
  // (The filter excludes the observing statement's own activity row.)
  auto act = Admin(
      "select user_name, session_id, statement, phase from fgac_activity "
      "where user_name = '11'");
  ASSERT_EQ(act.num_rows(), 1u);
  const Row& row = act.rows()[0];
  EXPECT_EQ(row[0], Value::String("11"));
  EXPECT_EQ(row[1], Value::String(s->id()));
  EXPECT_NE(row[2].string_value().find("select grade from grades"),
            std::string::npos);
  EXPECT_EQ(row[3], Value::String("exec"));

  // The session row says it is active and names the in-flight statement.
  auto ses = Admin(
      "select user_name, active, in_flight, current_statement "
      "from fgac_sessions where session_id = '" +
      s->id() + "'");
  ASSERT_EQ(ses.num_rows(), 1u);
  EXPECT_EQ(ses.rows()[0][1], Value::Bool(true));
  EXPECT_EQ(ses.rows()[0][2], Value::Int(1));
  EXPECT_NE(ses.rows()[0][3].string_value().find("select grade"),
            std::string::npos);

  // A different (non-admin) principal sees NONE of it through the
  // $user-scoped view — only their own observing statement comes back.
  SessionContext t12("12");
  t12.set_mode(EnforcementMode::kTruman);
  auto other = db_.Execute("select user_name from fgac_activity", t12);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  for (const Row& r : other.value().relation.rows()) {
    EXPECT_EQ(r[0], Value::String("12"));
  }

  lot.Release();
  runner.join();
  // Drained: the statement is gone from fgac_activity and counted in
  // fgac_sessions.statements_run.
  EXPECT_EQ(
      Admin("select seq from fgac_activity where user_name = '11'")
          .num_rows(),
      0u);
  auto after = Admin("select statements_run from fgac_sessions "
                     "where session_id = '" +
                     s->id() + "'");
  ASSERT_EQ(after.num_rows(), 1u);
  EXPECT_EQ(after.rows()[0][0], Value::Int(1));
  cm.CloseAll();
}

TEST_F(IntrospectionTest, ParkedValidityProbeShowsValidityPhase) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in";
  }
  ParkingLot lot;
  FaultInjector::Instance().OnHit("validity.probe", lot.Hook());

  // The Example 4.4 query is only conditionally valid, so its validity
  // check runs C3 probes; the hook parks the statement inside one.
  ASSERT_TRUE(db_.ExecuteScript("grant select on costudentgrades to 11;"
                                "grant select on myregistrations to 11")
                  .ok());
  SessionContext ctx("11");
  ctx.set_mode(EnforcementMode::kNonTruman);
  std::thread runner([&] {
    auto r =
        db_.Execute("select * from grades where course-id = 'cs101'", ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(lot.WaitParked(std::chrono::seconds(10)))
      << "statement never reached a validity probe";

  auto act = Admin("select user_name, phase from fgac_activity "
                   "where user_name = '11'");
  ASSERT_EQ(act.num_rows(), 1u);
  EXPECT_EQ(act.rows()[0][0], Value::String("11"));
  EXPECT_EQ(act.rows()[0][1], Value::String("validity"));

  lot.Release();
  runner.join();
}

// ---------------------------------------------------------------------------
// fgac_slow_queries: audit events of one second or more
// ---------------------------------------------------------------------------

/// Runs the Example 4.4 query as `user` in Non-Truman mode with its first
/// validity probe held for 1.1s, past fgac_slow_queries' 1s threshold. The
/// query is only conditionally valid, so its check always probes.
void RunSlowStatement(Database* db, const std::string& user) {
  FaultInjector::Instance().OnHit("validity.probe", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  });
  SessionContext ctx(user);
  ctx.set_mode(EnforcementMode::kNonTruman);
  auto r = db->Execute("select * from grades where course-id = 'cs101'", ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(IntrospectionTest, SlowStatementAppearsOnceWithItsPhaseSplit) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in";
  }
  ASSERT_TRUE(db_.ExecuteScript("grant select on costudentgrades to 11;"
                                "grant select on myregistrations to 11")
                  .ok());
  const uint64_t emitted = db_.audit_log().events_emitted();
  RunSlowStatement(&db_, "11");
  // One completion record: the slow statement is not audited twice.
  EXPECT_EQ(db_.audit_log().events_emitted(), emitted + 1);

  auto rel = Admin(
      "select user_name, statement, verdict, status, duration_us, "
      "validity_us, exec_us, admission_wait_us from fgac_slow_queries");
  ASSERT_EQ(rel.num_rows(), 1u);
  const Row& row = rel.rows()[0];
  EXPECT_EQ(row[0], Value::String("11"));
  EXPECT_NE(row[1].string_value().find("course-id = 'cs101'"),
            std::string::npos);
  EXPECT_EQ(row[2], Value::String("conditional"));
  EXPECT_EQ(row[3], Value::String("ok"));
  EXPECT_GE(row[4].int_value(), 1'000'000);
  // The held probe is validity time, measured without profiling.
  EXPECT_GE(row[5].int_value(), 1'000'000);
  EXPECT_LE(row[5].int_value() + row[6].int_value() + row[7].int_value(),
            row[4].int_value());
}

TEST_F(IntrospectionTest, SlowQueriesViewIsGovernedThroughTheAuditViews) {
  ASSERT_TRUE(db_.ExecuteScript("grant select on costudentgrades to 11;"
                                "grant select on myregistrations to 11;"
                                "grant select on costudentgrades to 12;"
                                "grant select on myregistrations to 12")
                  .ok());
  // With fault sites compiled in, each student leaves one slow statement;
  // the authorization decisions below hold either way.
  const bool slow_rows = FaultInjector::compiled_in();
  if (slow_rows) {
    RunSlowStatement(&db_, "11");
    RunSlowStatement(&db_, "12");
  }

  // Truman: the view expands over fgac_audit, which narrows to
  // fgac_my_audit, so a bare select sees the session user's rows only.
  SessionContext t11("11");
  t11.set_mode(EnforcementMode::kTruman);
  auto own = db_.Execute("select user_name from fgac_slow_queries", t11);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_EQ(own.value().relation.num_rows(), slow_rows ? 1u : 0u);
  for (const Row& row : own.value().relation.rows()) {
    EXPECT_EQ(row[0], Value::String("11"));
  }

  // Non-Truman: the self-scoped query is contained in fgac_my_audit; the
  // cross-user one is rejected outright.
  SessionContext n11("11");
  n11.set_mode(EnforcementMode::kNonTruman);
  auto self = db_.Execute(
      "select statement from fgac_slow_queries where user_name = '11'", n11);
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  EXPECT_EQ(self.value().relation.num_rows(), slow_rows ? 1u : 0u);
  auto peek = db_.Execute(
      "select statement from fgac_slow_queries where user_name = '12'", n11);
  ASSERT_FALSE(peek.ok());
  EXPECT_EQ(peek.status().code(), StatusCode::kNotAuthorized);

  // The auditor reads every user's slow statements through fgac_audit_all.
  SessionContext auditor("auditor");
  auditor.set_mode(EnforcementMode::kNonTruman);
  auto all = db_.Execute("select user_name from fgac_slow_queries", auditor);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().relation.num_rows(), slow_rows ? 2u : 0u);
}

// ---------------------------------------------------------------------------
// fgac_statement_cache: per-shard stats
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, StatementCacheTableMirrorsShardCounters) {
  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  ASSERT_TRUE(
      s->Execute("prepare g as select grade from grades "
                 "where course-id = $1")
          .ok());
  ASSERT_TRUE(s->Execute("execute g ('cs101')").ok());
  ASSERT_TRUE(s->Execute("execute g ('cs101')").ok());
  ASSERT_TRUE(s->Execute("execute g ('cs202')").ok());

  auto rel = Admin(
      "select shard, entries, hits, misses from fgac_statement_cache");
  ASSERT_GE(rel.num_rows(), 1u);
  int64_t entries = 0, hits = 0, misses = 0;
  std::set<int64_t> shards;
  for (const Row& row : rel.rows()) {
    shards.insert(row[0].int_value());
    entries += row[1].int_value();
    hits += row[2].int_value();
    misses += row[3].int_value();
  }
  EXPECT_EQ(shards.size(), rel.num_rows());  // one row per shard
  // The per-shard rows sum to the cache's global counters.
  EXPECT_EQ(entries, static_cast<int64_t>(db_.statement_cache().size()));
  EXPECT_EQ(hits, static_cast<int64_t>(db_.statement_cache().hits()));
  EXPECT_EQ(misses, static_cast<int64_t>(db_.statement_cache().misses()));
  EXPECT_GE(hits, 2);  // the two repeat EXECUTEs
  cm.CloseAll();
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, WatchdogFlagsParkedStatementOnceAndAuditsIt) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in";
  }
  ParkingLot lot;
  FaultInjector::Instance().OnHit("pipeline.run", lot.Hook());

  ConnectionManager cm(db_);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  s->context().set_exec_parallelism(2);
  // No deadline on the statement: the no_deadline_stall rule applies. The
  // fixture watchdog thread is off; we sample manually.
  std::thread runner([&] {
    auto r = s->Execute("select grade from grades");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(lot.WaitParked(std::chrono::seconds(10)));

  // First sample establishes the progress mark; a second sample past the
  // stall threshold with an unchanged tuple reports the stall.
  core::Watchdog wd({.enabled = false,
                     .deadline_factor = 2.0,
                     .no_deadline_stall = std::chrono::milliseconds(1)},
                    &db_.activity(), &db_.metrics());
  std::atomic<int> stall_reports{0};
  wd.set_on_stall([&](const common::StatementActivitySnapshot& snap,
                      const std::string& reason) {
    stall_reports.fetch_add(1);
    EXPECT_EQ(snap.user, "11");
    EXPECT_NE(reason.find("no progress"), std::string::npos) << reason;
  });
  wd.SampleOnce();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  wd.SampleOnce();
  EXPECT_EQ(wd.stalls_detected(), 1u);
  EXPECT_EQ(stall_reports.load(), 1);
  EXPECT_GE(
      db_.metrics().gauge("watchdog.stalled_statements").value(), 1);
  // Stalls dedupe: more samples, still one report for this statement.
  wd.SampleOnce();
  EXPECT_EQ(wd.stalls_detected(), 1u);

  // The Database's own watchdog turns stalls into audit events with
  // verdict "stalled"; exercise that wiring via its stall callback path.
  lot.Release();
  runner.join();
  cm.CloseAll();
}

TEST_F(IntrospectionTest, DatabaseWatchdogAuditsStalledStatements) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in";
  }
  // This database runs its own (manual-sample) watchdog wiring: stalls
  // append audit events with verdict "stalled".
  DatabaseOptions opts;
  opts.watchdog.enabled = false;
  opts.watchdog.no_deadline_stall = std::chrono::milliseconds(1);
  Database db(opts);
  SetupUniversity(&db);
  CreateUniversityViews(&db);
  ASSERT_TRUE(db.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  ASSERT_TRUE(db.catalog().SetTrumanView("grades", "mygrades").ok());

  ParkingLot lot;
  FaultInjector::Instance().OnHit("pipeline.run", lot.Hook());
  ConnectionManager cm(db);
  auto s = cm.Open("11", EnforcementMode::kTruman);
  s->context().set_exec_parallelism(2);
  std::thread runner([&] { (void)s->Execute("select grade from grades"); });
  ASSERT_TRUE(lot.WaitParked(std::chrono::seconds(10)));

  db.watchdog().SampleOnce();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  db.watchdog().SampleOnce();
  EXPECT_EQ(db.watchdog().stalls_detected(), 1u);

  lot.Release();
  runner.join();
  db.audit_log().Flush();
  auto rel = testing::MustQueryAdmin(
      &db, "select user_name, status from fgac_audit "
           "where verdict = 'stalled'");
  ASSERT_GE(rel.num_rows(), 1u);
  EXPECT_EQ(rel.rows()[0][0], Value::String("11"));
  EXPECT_EQ(rel.rows()[0][1], Value::String("in_flight"));
  cm.CloseAll();
}

// ---------------------------------------------------------------------------
// introspect.snapshot fault site
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, SnapshotFaultFailsTheQueryingStatementOnly) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "fault sites not compiled in";
  }
  FaultInjector::Instance().FailOnHit("introspect.snapshot");
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);
  auto r = db_.Execute("select * from fgac_sessions", admin);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  // The failure is confined to that statement's snapshot: the next
  // statement takes its own and reads normally, and non-system statements
  // never hit the site.
  EXPECT_TRUE(db_.Execute("select * from students", admin).ok());
  EXPECT_TRUE(db_.Execute("select * from fgac_sessions", admin).ok());
}

// ---------------------------------------------------------------------------
// System-table readers beside enforced SELECTs
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, SystemTableReadersRunBesideEnforcedSelects) {
  // Reading an fgac_ table snapshots it privately and writes no shared
  // storage, so an observer needs no lock against Non-Truman SELECTs whose
  // C3 verdicts read the data version and whose probes scan the tables.
  ASSERT_TRUE(db_.ExecuteScript("grant select on costudentgrades to 11;"
                                "grant select on myregistrations to 11")
                  .ok());
  const int iters = StressRepeat(20);
  std::atomic<int> failures{0};
  auto student = [&] {
    SessionContext ctx("11");
    ctx.set_mode(EnforcementMode::kNonTruman);
    for (int i = 0; i < iters; ++i) {
      auto r = db_.Execute("select * from grades where course-id = 'cs101'",
                           ctx);
      if (!r.ok() || r.value().validity.unconditional) ++failures;
    }
  };
  auto observer = [&] {
    SessionContext admin("admin");
    admin.set_mode(EnforcementMode::kNone);
    for (int i = 0; i < iters; ++i) {
      if (!db_.Execute("select count(*) from fgac_statement_cache", admin)
               .ok() ||
          !db_.Execute("select * from fgac_audit", admin).ok()) {
        ++failures;
      }
    }
  };
  std::thread s1(student), s2(student), obs(observer);
  s1.join();
  s2.join();
  obs.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Churn: 8 threads of session open/statement/close vs a snapshot reader
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, ChurnSnapshotsAreTearFreeAndWindowsMonotone) {
  constexpr int kThreads = 8;
  const int iters = StressRepeat(6);
  ConnectionManager cm(db_);
  std::atomic<bool> done{false};
  // The reader expects the select counter in every exposition, and the
  // first SELECT registers it: run one before the reader can look.
  ASSERT_TRUE(db_.ExecuteAsAdmin("select * from students").ok());

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::string user = (t % 2 == 0) ? "11" : "12";
      for (int i = 0; i < iters; ++i) {
        auto s = cm.Open(user, EnforcementMode::kTruman);
        ASSERT_TRUE(
            s->Execute("prepare q as select grade from grades "
                       "where course-id = $1")
                .ok());
        EXPECT_TRUE(s->Execute("execute q ('cs101')").ok());
        EXPECT_TRUE(s->Execute("select grade from grades").ok());
        cm.Close(s->id());
      }
    });
  }

  // The reader loops over registry snapshots, the governed system table,
  // and the Prometheus export while sessions churn underneath.
  std::thread reader([&] {
    uint64_t last_begun = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Registry snapshots: whole rows, principals from the writer set.
      for (const auto& s : db_.activity().SnapshotSessions()) {
        EXPECT_TRUE(s.user == "11" || s.user == "12") << s.user;
        EXPECT_FALSE(s.session_id.empty());
      }
      for (const auto& a : db_.activity().SnapshotStatements()) {
        EXPECT_TRUE(a.user == "11" || a.user == "12") << a.user;
        EXPECT_FALSE(a.statement.empty());
        EXPECT_LE(a.pipelines_done, a.pipelines_total);
      }
      // statements_begun is monotone across snapshots.
      uint64_t begun = db_.activity().statements_begun();
      EXPECT_GE(begun, last_begun);
      last_begun = begun;
      // Windowed counters never exceed cumulative, and windows nest.
      common::MetricsSnapshot snap = db_.metrics().Snapshot();
      auto it = snap.counter_windows.find("queries.select");
      if (it != snap.counter_windows.end()) {
        const auto& w = it->second;
        EXPECT_LE(w[0], w[1]);
        EXPECT_LE(w[1], w[2]);
        EXPECT_LE(w[2], snap.counters.at("queries.select"));
      }
      // The Prometheus exposition stays well-formed mid-churn.
      std::string prom = db_.ExportMetricsPrometheus();
      EXPECT_NE(prom.find("fgac_queries_select_total"), std::string::npos);
      EXPECT_EQ(prom.find("nan"), std::string::npos);
      // And the governed table itself is queryable throughout.
      SessionContext admin("admin");
      admin.set_mode(EnforcementMode::kNone);
      EXPECT_TRUE(db_.Execute("select * from fgac_sessions", admin).ok());
    }
  });

  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Quiesced: no sessions, no in-flight statements, counters add up.
  cm.CloseAll();
  EXPECT_EQ(db_.activity().sessions_open(), 0u);
  EXPECT_EQ(db_.activity().statements_active(), 0u);
  EXPECT_GE(db_.activity().statements_begun(),
            static_cast<uint64_t>(kThreads * iters * 3));
}

}  // namespace
}  // namespace fgac
