// Experiment E15 — inter-query concurrency on the shared pipeline
// scheduler.
//
// Closed-loop multi-client benchmark: N client threads, each bound to its
// own principal, hammer the Database facade back-to-back over a
// policy-laden schema (authorization views granted per student, Non-Truman
// validity checks on every statement, auditing on — the production
// configuration). Each query decomposes into a small pipeline DAG
// (parallelism 2), so at N > 1 the DAGs of different sessions interleave
// on the one shared pool, whose queue is session-fair.
//
// Reported per client count: aggregate throughput (qps) plus p50/p95/p99
// per-query latency from a power-of-two histogram — the scheduler's
// fairness shows up as a p99 that grows slower than the client count.
//
// The binary self-gates only on correctness (every query must succeed);
// throughput scaling is emitted for trend tracking but not gated, because
// on a single-core CI runner extra clients buy queueing, not speedup.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/workload.h"
#include "common/metrics.h"
#include "core/database.h"

namespace {

using fgac::bench::CreateStandardViews;
using fgac::bench::EmitJsonLine;
using fgac::bench::LoadScaledUniversity;
using fgac::bench::UniversityScale;
using fgac::common::Histogram;
using fgac::core::Database;
using fgac::core::EnforcementMode;
using fgac::core::SessionContext;

constexpr int kPrincipals = 8;
constexpr int kItersPerClient = 150;

// Per-client statement mix: a granted-view scan (validity-checked,
// Non-Truman), a base-table point query the validity engine accepts
// unconditionally via the user's mygrades grant (the paper's Section 1
// inference), and an admin aggregate that decomposes into a scan+merge
// DAG.
const char* kViewQuery = "select * from mygrades";
const char* kAggQuery =
    "select course-id, avg(grade), count(*) from grades group by course-id";

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  UniversityScale scale;
  scale.students = 4000;
  scale.courses = 40;
  LoadScaledUniversity(db.get(), scale);
  CreateStandardViews(db.get());
  for (int p = 0; p < kPrincipals; ++p) {
    std::string user = "s" + std::to_string(p);
    for (const char* view :
         {"mygrades", "costudentgrades", "myregistrations"}) {
      auto r = db->ExecuteAsAdmin("grant select on " + std::string(view) +
                                  " to " + user);
      if (!r.ok()) {
        std::fprintf(stderr, "grant failed: %s\n", r.status().ToString().c_str());
        std::exit(2);
      }
    }
  }
  db->options().parallelism = 2;
  return db;
}

struct RunResult {
  double wall_s = 0;
  double qps = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  double avg_ns = 0;
  int failures = 0;
};

RunResult RunClients(Database* db, int clients, int iters) {
  Histogram latency;
  std::vector<int> failures(static_cast<size_t>(clients), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([db, c, iters, &latency, &failures] {
      std::string user = "s" + std::to_string(c % kPrincipals);
      std::string point_query =
          "select grade from grades where student-id = '" + user + "'";
      SessionContext viewer(user);
      viewer.set_mode(EnforcementMode::kNonTruman);
      SessionContext admin("admin");
      admin.set_mode(EnforcementMode::kNone);
      for (int i = 0; i < iters; ++i) {
        const std::string& sql = i % 3 == 0   ? kAggQuery
                                 : i % 3 == 1 ? kViewQuery
                                              : point_query;
        const SessionContext& ctx = i % 3 == 0 ? admin : viewer;
        auto q0 = std::chrono::steady_clock::now();
        auto r = db->Execute(sql, ctx);
        auto q1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          std::fprintf(stderr, "query failed (%s): %s\n", sql.c_str(),
                       r.status().ToString().c_str());
          ++failures[static_cast<size_t>(c)];
          continue;
        }
        latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(q1 - q0)
                .count()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto dt = std::chrono::steady_clock::now() - t0;

  RunResult res;
  res.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(dt).count();
  uint64_t total = latency.count();
  res.qps = res.wall_s > 0 ? static_cast<double>(total) / res.wall_s : 0;
  res.p50_us = latency.ApproxPercentile(50);
  res.p95_us = latency.ApproxPercentile(95);
  res.p99_us = latency.ApproxPercentile(99);
  res.avg_ns = total > 0
                   ? static_cast<double>(latency.sum()) * 1000.0 /
                         static_cast<double>(total)
                   : 0;
  for (int f : failures) res.failures += f;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  // Accepts (and ignores) Google-Benchmark-style flags so run_all.sh can
  // pass one GBENCH_FLAGS to every binary.
  (void)argc;
  (void)argv;

  auto db = MakeDb();
  // Warm up: JIT-free engine, but the first statements pay validity-cache
  // misses and page-in; keep them out of the measured runs.
  RunClients(db.get(), 2, 20);

  int total_failures = 0;
  double qps1 = 0;
  for (int clients : {1, 2, 4, 8}) {
    RunResult r = RunClients(db.get(), clients, kItersPerClient);
    total_failures += r.failures;
    if (clients == 1) qps1 = r.qps;
    char extra[200];
    std::snprintf(extra, sizeof(extra),
                  ",\"clients\":%d,\"qps\":%.1f,\"p50_us\":%llu,"
                  "\"p95_us\":%llu,\"p99_us\":%llu",
                  clients, r.qps, static_cast<unsigned long long>(r.p50_us),
                  static_cast<unsigned long long>(r.p95_us),
                  static_cast<unsigned long long>(r.p99_us));
    EmitJsonLine("bench_concurrent_queries/clients:" + std::to_string(clients),
                 r.avg_ns, 0.0, extra);
    std::printf(
        "clients=%d  qps=%8.1f  p50=%6llu us  p95=%6llu us  p99=%6llu us"
        "  (x%.2f vs 1 client)\n",
        clients, r.qps, static_cast<unsigned long long>(r.p50_us),
        static_cast<unsigned long long>(r.p95_us),
        static_cast<unsigned long long>(r.p99_us),
        qps1 > 0 ? r.qps / qps1 : 0.0);
  }

  if (total_failures > 0) {
    std::fprintf(stderr, "FAIL: %d queries failed under concurrency\n",
                 total_failures);
    return 1;
  }
  std::printf("gate ok: all queries succeeded under concurrency\n");
  return 0;
}
