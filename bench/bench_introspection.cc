// Experiment E18 — the cost of live introspection.
//
// PR 10's observability layer is always on: every statement registers in
// the ActivityRegistry (fgac_sessions / fgac_activity), stamps its phase
// and guard charges, and every metric write also lands in the sliding
// 10s/1m/5m windows. This bench prices that layer against the
// bench_prepared steady-state workload two ways:
//
//   1. Per-statement share: microbench the exact always-on primitives a
//      steady-state statement performs (one BeginStatement/EndStatement
//      round trip with its phase/guard stamps, plus the statement's
//      bundle of windowed counter increments and histogram records), then
//      divide by the measured steady-state statement latency. This is the
//      "always-on activity/window layer costs <1%" claim, and it is
//      noise-robust: both numerator and denominator come from the same
//      process on the same machine.
//   2. Observer pressure: re-run the same closed loop while a monitoring
//      thread hammers registry snapshots, Prometheus exposition, and the
//      governed fgac_sessions table the way a 1s-scrape operator setup
//      would (much harder than reality: no sleep between scrapes). A
//      loose tripwire (observed <= 1.25x unobserved) catches a snapshot
//      path that starts blocking the workload.
//
// Self-gates (exit 1): all executions succeed; the per-statement share
// stays under 1%; the observed loop stays within the tripwire. The
// regression gate is bench/check_regression.py --require
// introspection_overhead_pct against the seed baseline, which CI enforces.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/workload.h"
#include "common/activity.h"
#include "common/metrics.h"
#include "core/database.h"
#include "server/connection_manager.h"

namespace {

using Clock = std::chrono::steady_clock;
using fgac::bench::EmitJsonLine;
using fgac::bench::LoadScaledUniversity;
using fgac::bench::UniversityScale;
using fgac::common::ActivityRegistry;
using fgac::common::MetricsRegistry;
using fgac::common::StatementActivity;
using fgac::common::StatementPhase;
using fgac::core::Database;
using fgac::core::EnforcementMode;
using fgac::server::ConnectionManager;
using fgac::server::Session;

constexpr int kSessions = 8;
constexpr int kPrincipals = 4;
constexpr int kItersPerSession = 200;
constexpr int kCourses = 8;

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  UniversityScale scale;
  scale.students = 2000;
  scale.courses = 40;
  LoadScaledUniversity(db.get(), scale);
  if (!db->ExecuteAsAdmin(
             "create authorization view mygrades as "
             "select student-id, course-id, grade from grades "
             "where student-id = $user-id")
           .ok() ||
      !db->catalog().SetTrumanView("grades", "mygrades").ok()) {
    std::fprintf(stderr, "setup failed\n");
    std::exit(1);
  }
  for (int p = 0; p < kPrincipals; ++p) {
    std::string user = "s" + std::to_string(p);
    if (!db->ExecuteAsAdmin("grant select on mygrades to " + user).ok()) {
      std::fprintf(stderr, "grant failed for %s\n", user.c_str());
      std::exit(1);
    }
  }
  return db;
}

struct LoopResult {
  double mean_us = 0;
  double p99_us = 0;
  uint64_t executed = 0;
  int errors = 0;
};

/// The bench_prepared steady-state closed loop: 8 Non-Truman sessions
/// re-EXECUTE a prepared own-rows statement, every execution a
/// statement-cache hit.
LoopResult RunClosedLoop(Database* db) {
  ConnectionManager cm(*db);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    auto s = cm.Open("s" + std::to_string(i % kPrincipals),
                     EnforcementMode::kNonTruman);
    auto p = s->Execute(
        "prepare q as select grade from grades "
        "where student-id = $user-id and course-id = $1");
    if (!p.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   p.status().ToString().c_str());
      std::exit(1);
    }
    sessions.push_back(std::move(s));
  }
  auto arg = [](int j) {
    return "execute q ('c" + std::to_string(j % kCourses) + "')";
  };
  for (auto& s : sessions) {
    for (int j = 0; j < kCourses; ++j) {
      auto r = s->Execute(arg(j));
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
    }
  }

  std::mutex mu;
  std::vector<uint64_t> all_us;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      std::vector<uint64_t> local_us;
      local_us.reserve(kItersPerSession);
      for (int j = 0; j < kItersPerSession; ++j) {
        Clock::time_point q0 = Clock::now();
        auto r = sessions[static_cast<size_t>(i)]->Execute(arg(j));
        Clock::time_point q1 = Clock::now();
        if (!r.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        local_us.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(q1 - q0)
                .count()));
      }
      std::lock_guard<std::mutex> lock(mu);
      all_us.insert(all_us.end(), local_us.begin(), local_us.end());
    });
  }
  for (std::thread& t : threads) t.join();

  LoopResult res;
  res.executed = all_us.size();
  res.errors = errors.load();
  if (!all_us.empty()) {
    std::sort(all_us.begin(), all_us.end());
    for (uint64_t v : all_us) res.mean_us += static_cast<double>(v);
    res.mean_us /= static_cast<double>(all_us.size());
    size_t idx = static_cast<size_t>(0.99 * static_cast<double>(all_us.size()));
    res.p99_us = static_cast<double>(all_us[std::min(idx, all_us.size() - 1)]);
  }
  cm.CloseAll();
  return res;
}

/// Per-statement cost of the activity registry: one statement lifecycle
/// with the stamps the real statement path performs (phase transitions,
/// guard charges, admission wait, pipeline progress).
double RegistryNsPerStatement() {
  ActivityRegistry reg;
  reg.OpenSession("bench", "s0");
  constexpr int kOps = 200000;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    std::shared_ptr<StatementActivity> act = reg.BeginStatement(
        "bench", "s0", "execute q ('c1')");
    act->set_admission_wait_us(3);
    act->set_phase(StatementPhase::kValidity);
    act->StampGuard(16, 1024);
    act->set_phase(StatementPhase::kExec);
    act->progress().sets_total.fetch_add(1, std::memory_order_relaxed);
    act->progress().sets_done.fetch_add(1, std::memory_order_relaxed);
    act->StampGuard(32, 2048);
    act->set_phase(StatementPhase::kFinished);
    reg.EndStatement(act);
  }
  double ns = std::chrono::duration_cast<std::chrono::duration<double>>(
                  Clock::now() - t0)
                  .count() *
              1e9 / kOps;
  reg.CloseSession("bench");
  return ns;
}

/// Per-statement cost of the windowed metric writes: the counter/histogram
/// bundle a steady-state prepared execution performs (queries.total,
/// queries.select, cache hit counters, latency histograms) — all through
/// the production Increment()/Record() calls, windows included.
double WindowNsPerStatement() {
  MetricsRegistry metrics;
  auto& c1 = metrics.counter("queries.total");
  auto& c2 = metrics.counter("queries.select");
  auto& c3 = metrics.counter("statement_cache.hits");
  auto& c4 = metrics.counter("validity.cache_hits");
  auto& h1 = metrics.histogram("prepared.execute_us");
  auto& h2 = metrics.histogram("exec.run_us");
  auto& h3 = metrics.histogram("validity.check_us");
  constexpr int kOps = 200000;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    c1.Increment();
    c2.Increment();
    c3.Increment();
    c4.Increment();
    h1.Record(static_cast<uint64_t>(200 + (i & 255)));
    h2.Record(static_cast<uint64_t>(100 + (i & 127)));
    h3.Record(static_cast<uint64_t>(50 + (i & 63)));
  }
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - t0)
             .count() *
         1e9 / kOps;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::unique_ptr<Database> db = MakeDb();

  // Unobserved steady state: the always-on layer runs (it cannot be
  // compiled out), but nobody is scraping.
  LoopResult unobserved = RunClosedLoop(db.get());
  EmitJsonLine("introspection_unobserved_p99", unobserved.p99_us * 1000.0);
  std::printf("unobserved: mean %.0fus p99 %.0fus over %llu executions\n",
              unobserved.mean_us, unobserved.p99_us,
              static_cast<unsigned long long>(unobserved.executed));

  // Observed steady state: a no-sleep monitoring loop — registry
  // snapshots, full Prometheus exposition, and the governed system table
  // (each read builds a private snapshot of fgac_sessions and writes no
  // shared storage) — runs against the same workload.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread observer([&] {
    fgac::core::SessionContext admin("admin");
    admin.set_mode(EnforcementMode::kNone);
    while (!stop.load(std::memory_order_acquire)) {
      (void)db->activity().SnapshotSessions();
      (void)db->activity().SnapshotStatements();
      std::string prom = db->ExportMetricsPrometheus();
      if (prom.empty()) std::fprintf(stderr, "empty exposition\n");
      auto r = db->Execute("select * from fgac_sessions", admin);
      if (!r.ok()) {
        std::fprintf(stderr, "observer query failed: %s\n",
                     r.status().ToString().c_str());
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  LoopResult observed = RunClosedLoop(db.get());
  stop.store(true, std::memory_order_release);
  observer.join();
  EmitJsonLine("introspection_observed_p99", observed.p99_us * 1000.0);
  std::printf("observed:   mean %.0fus p99 %.0fus (%llu scrapes alongside)\n",
              observed.mean_us, observed.p99_us,
              static_cast<unsigned long long>(scrapes.load()));

  // The always-on layer, priced per statement.
  double registry_ns = RegistryNsPerStatement();
  double window_ns = WindowNsPerStatement();
  double layer_ns = registry_ns + window_ns;
  double statement_ns = unobserved.mean_us * 1000.0;
  double overhead_pct =
      statement_ns > 0 ? layer_ns / statement_ns * 100.0 : 100.0;
  char extra[200];
  std::snprintf(extra, sizeof(extra),
                ",\"overhead_pct\":%.4f,\"registry_ns\":%.1f,"
                "\"window_ns\":%.1f,\"statement_ns\":%.0f",
                overhead_pct, registry_ns, window_ns, statement_ns);
  EmitJsonLine("introspection_overhead_pct", layer_ns, 0.0, extra);
  std::printf(
      "always-on layer: registry %.0fns + windows %.0fns = %.0fns per "
      "statement -> %.3f%% of a %.0fus steady-state execution\n",
      registry_ns, window_ns, layer_ns, overhead_pct, statement_ns / 1000.0);

  // Self-gates.
  int failures = 0;
  if (unobserved.errors + observed.errors > 0) {
    std::fprintf(stderr, "GATE: %d executions failed\n",
                 unobserved.errors + observed.errors);
    ++failures;
  }
  if (overhead_pct >= 1.0) {
    std::fprintf(stderr,
                 "GATE: always-on introspection layer is %.3f%% of a "
                 "steady-state statement (budget < 1%%)\n",
                 overhead_pct);
    ++failures;
  }
  if (unobserved.mean_us > 0 &&
      observed.mean_us > 1.25 * unobserved.mean_us) {
    std::fprintf(stderr,
                 "GATE: observed steady state %.0fus > 1.25x unobserved "
                 "%.0fus — scraping is blocking the workload\n",
                 observed.mean_us, unobserved.mean_us);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
