#ifndef FGAC_PERFBENCH_LAYERS_H_
#define FGAC_PERFBENCH_LAYERS_H_

// The traced run: after each statement the engine answered, the benchmark
// re-issues that statement's calls into each src/ layer on the same inputs
// and times them from here — parse, bind, Truman rewrite, view
// instantiation, validity check, optimize, execute. Only the steps the
// engine actually ran are replayed (a verdict or Truman plan served from a
// cache is not recomputed). Nothing inside src/ is timed.

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "core/database.h"
#include "workload.h"

namespace fgac::perfbench {

/// Sums of one client's replays.
struct LayerSums {
  double parse_ns = 0, bind_ns = 0, rewrite_ns = 0, instantiate_ns = 0,
         check_ns = 0, optimize_ns = 0, exec_ns = 0;
  uint64_t parse_n = 0, bind_n = 0, rewrite_n = 0, check_n = 0,
           optimize_n = 0, exec_n = 0;
  double validity_memo_exprs = 0, views_pruned = 0, views_considered = 0,
         probes = 0;
  double optimizer_memo_exprs = 0;
  double truman_ops_before = 0, truman_ops_after = 0;
  double rows_scanned = 0, rows_returned = 0;
  /// Read statements: engine wall time and the part the replays cover.
  double read_wall_ns = 0, read_layers_ns = 0;
  uint64_t read_n = 0;
  double policy_ns = 0;
  uint64_t policy_n = 0;
  double rebuild_ns = 0;
  uint64_t rebuild_n = 0;
  /// Replayed time of the work behind the engine's own histograms.
  double xc_validity_ns = 0, xc_exec_ns = 0, xc_prepared_ns = 0;

  void Add(const LayerSums& o);
};

/// Inputs kept for the cold probes of layers a workload's stream never
/// enters (for example validity checks when every verdict is cached).
struct ProbeInput {
  core::SessionContext ctx;
  algebra::PlanPtr plan;      // bound (concrete) statement plan
  algebra::PlanPtr truman_in; // plan the Truman rewriter receives
  algebra::PlanPtr to_run;    // plan handed to the optimizer
};

class TraceSink {
 public:
  explicit TraceSink(int clients);

  /// Called by the client thread that ran `st`, with the statement's latch
  /// still held. `verdict_from_cache` is the engine's verdict-cache hit
  /// counter moving during the statement. It is consulted only for rejected
  /// statements, which carry no ExecResult; only policy_churn has them, and
  /// its databases each serve one client, so the counter is exact there.
  void OnStatement(Bench& bench, int client, const Statement& st,
                   const core::SessionContext& ctx,
                   const Result<core::ExecResult>& r, double wall_ns,
                   bool verdict_from_cache);

  LayerSums Total() const;
  const std::vector<ProbeInput>& probes() const { return probes_; }

 private:
  struct PreparedPlans {
    algebra::PlanPtr parameterized;
    algebra::PlanPtr truman;  // rewritten parameterized plan
  };
  struct Client {
    LayerSums sums;
    uint64_t seen = 0;
    /// (student, prepared shape) -> plans, computed untimed on first use.
    std::map<std::pair<int, int>, PreparedPlans> prepared;
  };

  void Read(Bench& bench, Client& c, const Statement& st,
            const core::SessionContext& ctx, const core::ExecResult* res,
            double wall_ns, bool verdict_from_cache);

  std::vector<Client> clients_;
  std::mutex probes_mu_;
  std::vector<ProbeInput> probes_;
};

/// Per-layer metrics of one traced run, computed from the replay sums, the
/// engine's counters over the untraced half, and cold probes.
struct LayerReport {
  std::map<std::string, double> metrics;
  /// Replay ÷ engine-histogram ratios and their disagreement flags.
  std::map<std::string, double> cross_check;
  std::vector<std::string> flags;
  /// Mean per read statement: each layer's share and the residual.
  std::map<std::string, double> breakdown_us;
  std::vector<std::string> probed;
};

/// Engine-side counters sampled at the edges of the untraced half.
struct EngineCounters {
  uint64_t verdict_hits = 0, verdict_misses = 0;
  uint64_t stmt_hits = 0, stmt_misses = 0;
  uint64_t evictions = 0;
  uint64_t tasks = 0, task_wait_us = 0, task_run_us = 0;
  uint64_t audit_emitted = 0, audit_dropped = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hist;  // count, sum
  static EngineCounters Read(core::Database& db);
};

/// Assembles the report. `a0`/`a1` bracket the untraced half (`stmts_a`
/// statements over `wall_a_s`); `b0`/`b1` bracket the traced half.
/// Runs the cold probes against `bench` for layers the stream missed.
LayerReport BuildLayerReport(Bench& bench, const TraceSink& sink,
                             const EngineCounters& a0,
                             const EngineCounters& a1, uint64_t stmts_a,
                             double wall_a_s, const EngineCounters& b0,
                             const EngineCounters& b1, double bound);

}  // namespace fgac::perfbench

#endif  // FGAC_PERFBENCH_LAYERS_H_
