// Audit-overhead bench and self-gate — the cost of the security audit log
// that is ON by default for every statement.
//
// Three end-to-end configurations of the same point SELECT through the
// Database facade:
//   audit_off      — AuditOptions::enabled = false: Append() is a no-op
//                    and no flusher thread runs;
//   audit_on       — the production default: one event per statement
//                    through the lock-free ring into in-memory retention;
//   audit_on_sink  — additionally persisting JSON lines to a sink file
//                    (no fsync: the flusher batches writes off the query
//                    path).
//
// The design budget (EXPERIMENTS.md): always-on auditing within 2% of
// audit-off on this workload. The binary SELF-GATES and exits 1 when a
// budget is blown, so CI's bench job catches a regression without
// depending on cross-machine baselines:
//
//   1. Append() — the ONLY work added to the query path — must stay under
//      2 us single-threaded and under 4 us across 4 contending producers.
//      It measures ~75-130 ns depending on the host (EXPERIMENTS.md
//      E14); an accidental mutex, syscall, or allocation storm lands in
//      microseconds and trips this reliably even on a noisy runner.
//   2. The end-to-end audit-on vs audit-off delta gets only a 50%
//      catastrophic backstop. On a single-core CI runner the run-to-run
//      noise of the full query path is +/-10% — far above the real
//      overhead (~0.1% for this workload) — so a tight end-to-end gate
//      would flap. The measured delta is still emitted to the JSON
//      side-channel for trend tracking.
//
// Trials are interleaved round-robin across the configurations: on a
// single-core CI runner, sequential per-config loops read machine drift
// as tens of percent of fake "overhead".

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/workload.h"
#include "common/audit.h"
#include "core/database.h"

namespace {

using fgac::bench::EmitJsonLine;
using fgac::bench::LoadScaledUniversity;
using fgac::bench::UniversityScale;
using fgac::common::AuditEvent;
using fgac::common::AuditLog;
using fgac::common::AuditOptions;
using fgac::core::Database;
using fgac::core::DatabaseOptions;
using fgac::core::EnforcementMode;
using fgac::core::SessionContext;

// A cheap point query: execution cost is small, so the per-statement audit
// overhead is as visible as it gets — a worst case for the budget.
constexpr const char* kQuery =
    "select name from students where student-id = 's7'";

std::unique_ptr<Database> MakeDb(bool audit_enabled,
                                 const std::string& sink_path) {
  DatabaseOptions opts;
  opts.audit.enabled = audit_enabled;
  opts.audit.sink_path = sink_path;
  auto db = std::make_unique<Database>(std::move(opts));
  UniversityScale scale;
  scale.students = 2000;
  scale.courses = 20;
  LoadScaledUniversity(db.get(), scale);
  return db;
}

/// ns/op for `iters` facade executions, after `warmup` unmeasured ones.
double MeasureQueryNs(Database* db, int warmup, int iters) {
  SessionContext ctx("admin");
  ctx.set_mode(EnforcementMode::kNone);
  for (int i = 0; i < warmup; ++i) {
    auto r = db->Execute(kQuery, ctx);
    if (!r.ok()) {
      std::fprintf(stderr, "bench query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(2);
    }
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto r = db->Execute(kQuery, ctx);
    if (!r.ok()) std::exit(2);
  }
  auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                 .count()) /
         iters;
}

/// Best-of-`trials` for each config, with trials INTERLEAVED round-robin
/// across the configs. Sequential per-config measurement reads machine
/// drift (cache state, thermal, page cache) as audit overhead — on a
/// single-core runner that artifact alone exceeds the real cost several
/// times over. Interleaving makes every config sample every phase of the
/// drift; the per-config minimum then compares like with like.
std::vector<double> BestOfInterleavedTrials(const std::vector<Database*>& dbs,
                                            int trials, int iters) {
  std::vector<double> best(dbs.size(), 0.0);
  for (int t = 0; t < trials; ++t) {
    for (size_t i = 0; i < dbs.size(); ++i) {
      double ns = MeasureQueryNs(dbs[i], /*warmup=*/iters / 4, iters);
      if (t == 0 || ns < best[i]) best[i] = ns;
    }
  }
  return best;
}

AuditEvent MakeEvent(int i) {
  AuditEvent ev;
  ev.user = "u1";
  ev.session = "s1";
  ev.mode = "none";
  ev.statement = kQuery;
  ev.statement_hash = static_cast<uint64_t>(i);
  ev.verdict = "none";
  return ev;
}

double MeasureAppendNs(int threads, uint64_t per_thread) {
  AuditOptions opts;
  opts.ring_capacity = 1 << 14;
  opts.retain_events = 1024;
  AuditLog log(opts);
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&log, per_thread] {
      for (uint64_t i = 0; i < per_thread; ++i) {
        log.Append(MakeEvent(static_cast<int>(i)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                 .count()) /
         static_cast<double>(per_thread * threads);
}

}  // namespace

int main(int argc, char** argv) {
  // Accepts (and ignores) Google-Benchmark-style flags so run_all.sh can
  // pass one GBENCH_FLAGS to every binary.
  (void)argc;
  (void)argv;
  constexpr int kTrials = 5;
  constexpr int kIters = 1500;

  auto off = MakeDb(/*audit_enabled=*/false, "");
  auto on = MakeDb(/*audit_enabled=*/true, "");
  const std::string sink = "/tmp/fgac_bench_audit_sink.jsonl";
  std::remove(sink.c_str());
  auto on_sink = MakeDb(/*audit_enabled=*/true, sink);

  std::vector<double> best = BestOfInterleavedTrials(
      {off.get(), on.get(), on_sink.get()}, kTrials, kIters);
  double off_ns = best[0];
  double on_ns = best[1];
  double sink_ns = best[2];
  double overhead_pct = (on_ns - off_ns) / off_ns * 100.0;
  double sink_pct = (sink_ns - off_ns) / off_ns * 100.0;

  double append_ns = MeasureAppendNs(1, 200000);
  double append4_ns = MeasureAppendNs(4, 100000);

  char extra[160];
  std::snprintf(extra, sizeof(extra), ",\"overhead_pct\":%.2f",
                overhead_pct);
  EmitJsonLine("bench_audit/query_audit_off", off_ns);
  EmitJsonLine("bench_audit/query_audit_on", on_ns, 0.0, extra);
  std::snprintf(extra, sizeof(extra), ",\"overhead_pct\":%.2f", sink_pct);
  EmitJsonLine("bench_audit/query_audit_on_sink", sink_ns, 0.0, extra);
  EmitJsonLine("bench_audit/append_1thread", append_ns);
  EmitJsonLine("bench_audit/append_4threads", append4_ns);
  std::remove(sink.c_str());

  std::printf("audit off     : %10.0f ns/op\n", off_ns);
  std::printf("audit on      : %10.0f ns/op  (%+.2f%%)\n", on_ns,
              overhead_pct);
  std::printf("audit on+sink : %10.0f ns/op  (%+.2f%%)\n", sink_ns,
              sink_pct);
  std::printf("append        : %10.1f ns/op (1 thread)\n", append_ns);
  std::printf("append        : %10.1f ns/op (4 threads)\n", append4_ns);

  // Self-gates (see the file comment for why the tight gate is on the
  // append path and the end-to-end delta only gets a backstop).
  int failures = 0;
  constexpr double kAppendNsBudget = 2000.0;
  constexpr double kAppendContendedNsBudget = 4000.0;
  constexpr double kCliffPct = 50.0;
  if (append_ns > kAppendNsBudget) {
    std::fprintf(stderr,
                 "FAIL: Append() costs %.0f ns > %.0f ns budget — something "
                 "heavy crept onto the query path\n",
                 append_ns, kAppendNsBudget);
    ++failures;
  }
  if (append4_ns > kAppendContendedNsBudget) {
    std::fprintf(stderr,
                 "FAIL: contended Append() costs %.0f ns > %.0f ns budget\n",
                 append4_ns, kAppendContendedNsBudget);
    ++failures;
  }
  if (overhead_pct > kCliffPct) {
    std::fprintf(stderr,
                 "FAIL: always-on end-to-end overhead %.2f%% exceeds the "
                 "%.0f%% catastrophic backstop (documented target: 2%%)\n",
                 overhead_pct, kCliffPct);
    ++failures;
  }
  if (failures > 0) return 1;
  std::printf(
      "gate ok: append %.0f ns (<= %.0f), contended %.0f ns (<= %.0f), "
      "end-to-end %+.2f%% (backstop %.0f%%)\n",
      append_ns, kAppendNsBudget, append4_ns, kAppendContendedNsBudget,
      overhead_pct, kCliffPct);
  return 0;
}
