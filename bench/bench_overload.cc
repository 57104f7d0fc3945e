// Experiment E16 — graceful load shedding under open-loop overload.
//
// Unlike the closed-loop concurrency bench (E15), arrivals here come from
// a fixed-rate schedule that does not slow down when the server does —
// the regime where an unprotected engine's latency grows without bound.
// The database runs with admission control on (2 concurrent lanes, a
// 2-deep wait queue, shed-newest): the excess load past capacity must be
// TURNED AWAY with kOverloaded + a retry-after hint, while the admitted
// queries keep near-uncontended latency.
//
// Protocol:
//   1. measure uncontended service time (sequential closed loop) -> the
//      capacity estimate (lanes / mean-service) and the baseline p99;
//   2. open-loop sweep at 1x and 4x capacity: 8 dispatcher threads fire
//      queries on the schedule, recording admitted latency vs sheds;
//   3. emit goodput, shed rate and admitted p99 per load point.
//
// Self-gates (exit 1): queries may only succeed or shed; every shed must
// carry a parseable retry-after hint; at 4x capacity some excess must
// actually shed AND admitted p99 must stay within 2x the uncontended p99
// (+20ms absolute slack for scheduler noise on small CI runners) — the
// whole point of shedding is that the work we accept stays fast.
//
// CI gates overload_admitted_p99_4x against the seed baseline through
// bench/check_regression.py --require, so the overload path cannot
// silently drop out of the sweep.

#include <algorithm>
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
#include "core/database.h"
#include "exec/admission.h"

namespace {

using Clock = std::chrono::steady_clock;
using fgac::StatusCode;
using fgac::bench::EmitJsonLine;
using fgac::bench::LoadScaledUniversity;
using fgac::bench::UniversityScale;
using fgac::core::Database;
using fgac::core::DatabaseOptions;
using fgac::core::EnforcementMode;
using fgac::core::SessionContext;
using fgac::exec::RetryAfterHintMs;

constexpr size_t kLanes = 2;
constexpr int kDispatchers = 8;
constexpr int kArrivalsPerLoad = 300;

const char* kQuery =
    "select course-id, avg(grade), count(*) from grades group by course-id";

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions opts;
  opts.admission.max_concurrent = kLanes;
  opts.admission.max_queue = 2;
  auto db = std::make_unique<Database>(opts);
  UniversityScale scale;
  scale.students = 4000;
  scale.courses = 40;
  LoadScaledUniversity(db.get(), scale);
  return db;
}

double PercentileUs(std::vector<uint64_t> us, double p) {
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  size_t idx = static_cast<size_t>(p / 100.0 * static_cast<double>(us.size()));
  return static_cast<double>(us[std::min(idx, us.size() - 1)]);
}

struct LoadResult {
  double goodput_qps = 0;
  double shed_rate = 0;
  double admitted_p99_us = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  int errors = 0;  // anything that neither succeeded nor shed cleanly
};

/// Fires kArrivalsPerLoad queries at `rate_qps` from kDispatchers threads
/// (arrival i belongs to thread i % kDispatchers and departs at
/// t0 + i/rate, whether or not earlier queries have finished).
LoadResult RunOpenLoop(Database* db, double rate_qps) {
  std::mutex mu;
  std::vector<uint64_t> admitted_us;
  LoadResult res;
  auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_qps));
  Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> dispatchers;
  dispatchers.reserve(kDispatchers);
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      SessionContext ctx("admin");
      ctx.set_mode(EnforcementMode::kNone);
      for (int i = d; i < kArrivalsPerLoad; i += kDispatchers) {
        std::this_thread::sleep_until(t0 + interval * i);
        Clock::time_point q0 = Clock::now();
        auto r = db->Execute(kQuery, ctx);
        Clock::time_point q1 = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        if (r.ok()) {
          ++res.admitted;
          admitted_us.push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(q1 - q0)
                  .count()));
        } else if (r.status().code() == StatusCode::kOverloaded &&
                   RetryAfterHintMs(r.status()) >= 1) {
          ++res.shed;
        } else {
          std::fprintf(stderr, "unexpected outcome: %s\n",
                       r.status().ToString().c_str());
          ++res.errors;
        }
      }
    });
  }
  for (std::thread& t : dispatchers) t.join();
  Clock::time_point t_end = Clock::now();
  double wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                      t_end - t0)
                      .count();
  res.goodput_qps =
      wall_s > 0 ? static_cast<double>(res.admitted) / wall_s : 0;
  res.shed_rate = static_cast<double>(res.shed) /
                  static_cast<double>(kArrivalsPerLoad);
  res.admitted_p99_us = PercentileUs(admitted_us, 99.0);
  return res;
}

void EmitLoad(const std::string& name, const LoadResult& r) {
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                ",\"goodput_qps\":%.1f,\"shed_rate\":%.3f,\"admitted\":%llu"
                ",\"shed\":%llu",
                r.goodput_qps, r.shed_rate,
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.shed));
  EmitJsonLine(name, r.admitted_p99_us * 1000.0, /*rows_per_sec=*/0.0, extra);
}

}  // namespace

int main(int argc, char** argv) {
  // Accepts (and ignores) Google-Benchmark-style flags so run_all.sh can
  // pass one GBENCH_FLAGS to every binary.
  (void)argc;
  (void)argv;
  std::unique_ptr<Database> db = MakeDb();
  SessionContext admin("admin");
  admin.set_mode(EnforcementMode::kNone);

  // Uncontended baseline: sequential closed loop (one warm-up run, then
  // measured runs).
  constexpr int kBaselineIters = 150;
  std::vector<uint64_t> base_us;
  base_us.reserve(kBaselineIters);
  for (int i = 0; i < kBaselineIters + 1; ++i) {
    Clock::time_point q0 = Clock::now();
    auto r = db->Execute(kQuery, admin);
    Clock::time_point q1 = Clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "baseline query failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (i > 0) {
      base_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(q1 - q0)
              .count()));
    }
  }
  double mean_us = 0;
  for (uint64_t v : base_us) mean_us += static_cast<double>(v);
  mean_us /= static_cast<double>(base_us.size());
  double uncontended_p99_us = PercentileUs(base_us, 99.0);
  double capacity_qps =
      static_cast<double>(kLanes) * 1e6 / std::max(1.0, mean_us);
  EmitJsonLine("overload_uncontended_p99", uncontended_p99_us * 1000.0);
  std::printf("uncontended: mean %.0fus p99 %.0fus -> capacity ~%.0f qps\n",
              mean_us, uncontended_p99_us, capacity_qps);

  LoadResult at_1x = RunOpenLoop(db.get(), capacity_qps);
  EmitLoad("overload_admitted_p99_1x", at_1x);
  std::printf("1x: goodput %.0f qps, shed %.1f%%, admitted p99 %.0fus\n",
              at_1x.goodput_qps, at_1x.shed_rate * 100,
              at_1x.admitted_p99_us);

  LoadResult at_4x = RunOpenLoop(db.get(), 4.0 * capacity_qps);
  EmitLoad("overload_admitted_p99_4x", at_4x);
  std::printf("4x: goodput %.0f qps, shed %.1f%%, admitted p99 %.0fus\n",
              at_4x.goodput_qps, at_4x.shed_rate * 100,
              at_4x.admitted_p99_us);

  int rc = 0;
  if (at_1x.errors + at_4x.errors > 0) {
    std::fprintf(stderr,
                 "FAIL: %d queries neither succeeded nor shed cleanly\n",
                 at_1x.errors + at_4x.errors);
    rc = 1;
  }
  if (at_4x.shed == 0) {
    std::fprintf(stderr,
                 "FAIL: no sheds at 4x capacity — admission control is not "
                 "engaging\n");
    rc = 1;
  }
  double p99_limit_us = 2.0 * uncontended_p99_us + 20000.0;
  if (at_4x.admitted_p99_us > p99_limit_us) {
    std::fprintf(stderr,
                 "FAIL: admitted p99 under 4x overload (%.0fus) exceeds 2x "
                 "uncontended + slack (%.0fus)\n",
                 at_4x.admitted_p99_us, p99_limit_us);
    rc = 1;
  }
  return rc;
}
