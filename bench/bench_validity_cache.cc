// Experiment E6 — Section 5.6 optimization: "If the same query is reissued
// multiple times in a session, we can cache the results of the validity
// check"; for prepared statements "come up with a cheap test that is used
// each time the query is executed."
//
// Measures per-execution latency of a Non-Truman SELECT when the verdict
// is (a) recomputed every time, (b) served from the validity cache, and
// (c) not needed at all (enforcement off, lower bound).
//
// Expected shape: cached ≈ none + a hash lookup; uncached pays the full
// inference cost on every execution.

#include <benchmark/benchmark.h>

#include "bench/bench_report.h"
#include "bench/workload.h"

namespace {

using fgac::core::Database;
using fgac::core::EnforcementMode;
using fgac::core::SessionContext;

constexpr const char* kQuery =
    "select grade from grades where student-id = 's7'";

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    fgac::bench::UniversityScale scale;
    scale.students = 500;
    fgac::bench::LoadScaledUniversity(d, scale);
    fgac::bench::CreateStandardViews(d);
    if (!d->ExecuteScript("grant select on mygrades to public;"
                          "grant select on costudentgrades to public;"
                          "grant select on myregistrations to public")
             .ok()) {
      std::abort();
    }
    return d;
  }();
  return db;
}

void BM_NoEnforcement(benchmark::State& state) {
  Database* db = SharedDb();
  SessionContext ctx("s7");
  ctx.set_mode(EnforcementMode::kNone);
  for (auto _ : state) {
    auto r = db->Execute(kQuery, ctx);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}

void BM_VerdictUncached(benchmark::State& state) {
  Database* db = SharedDb();
  db->options().enable_validity_cache = false;
  SessionContext ctx("s7");
  ctx.set_mode(EnforcementMode::kNonTruman);
  for (auto _ : state) {
    auto r = db->Execute(kQuery, ctx);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  db->options().enable_validity_cache = true;
}

void BM_VerdictCached(benchmark::State& state) {
  Database* db = SharedDb();
  db->options().enable_validity_cache = true;
  SessionContext ctx("s7");
  ctx.set_mode(EnforcementMode::kNonTruman);
  // Warm the cache.
  if (!db->Execute(kQuery, ctx).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    auto r = db->Execute(kQuery, ctx);
    if (!r.ok() || !r.value().validity_from_cache) {
      state.SkipWithError("expected a cache hit");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(db->statement_cache().hits()));
}

// Prepared-statement pattern: same statement, different constants => each
// constant keys its own verdict, so a workload cycling through a few users
// still hits after one round.
void BM_PreparedStatementCycle(benchmark::State& state) {
  Database* db = SharedDb();
  db->options().enable_validity_cache = true;
  std::vector<SessionContext> sessions;
  std::vector<std::string> queries;
  for (int i = 0; i < 8; ++i) {
    std::string sid = "s" + std::to_string(10 + i);
    sessions.emplace_back(sid);
    sessions.back().set_mode(EnforcementMode::kNonTruman);
    queries.push_back("select grade from grades where student-id = '" + sid +
                      "'");
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = db->Execute(queries[i % 8], sessions[i % 8]);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
    ++i;
  }
}

}  // namespace

BENCHMARK(BM_NoEnforcement)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerdictUncached)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerdictCached)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PreparedStatementCycle)->Unit(benchmark::kMicrosecond);

FGAC_BENCHMARK_MAIN();
