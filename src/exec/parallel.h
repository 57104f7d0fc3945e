#ifndef FGAC_EXEC_PARALLEL_H_
#define FGAC_EXEC_PARALLEL_H_

#include <cstddef>

#include "algebra/plan.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "common/trace.h"
#include "exec/scheduler.h"
#include "storage/database_state.h"
#include "storage/relation.h"

namespace fgac::exec {

class ExecStats;

/// Rows claimed per fetch from the shared morsel cursor. One morsel is one
/// output chunk, so load balancing granularity equals the vector size: small
/// enough that a thread stuck on an expensive filter does not hold up the
/// others, large enough that the atomic increment is amortized over ~1k rows.
inline constexpr size_t kMorselSize = 1024;

/// True when ParallelExecutePlan(plan, state, n>1) would actually fan the
/// plan out over multiple pipelines rather than falling back to the serial
/// executor. Exposed so tests and benchmarks can assert coverage.
bool IsParallelizable(const algebra::PlanPtr& plan,
                      const storage::DatabaseState& state);

/// Pipeline-parallel variant of ExecutePlan. Semantics are identical to
/// the serial executor (same rows as a multiset, same error statuses); only
/// scheduling differs. This is the thin entry point: it owns the serial
/// fallback, and delegates decomposable plans to ExecutePlanPipelined
/// (exec/pipeline.h), which breaks them into a DAG of pipelines run on the
/// shared PipelineScheduler and pool.
///
/// Parallelized shapes: any left-spine pipeline of kGet / kSelect /
/// kProject / equi-key kJoin rooted at a base-table scan, optionally topped
/// by one kAggregate (partial per-task aggregation + merge pipeline),
/// kDistinct (per-task pre-dedup + merge dedup), or kSort (parallel gather
/// + single-task sort); kUnionAll branches decompose independently and
/// share one DAG. Everything else — kValues sources, non-equi joins,
/// kLimit (inherently serial early-out) — falls back to ExecutePlan.
///
/// Join build sides run as their own single-task pipelines (independent
/// builds proceed concurrently) and are shared read-only across all probe
/// tasks; base-table scans share a single atomic morsel cursor.
/// `num_threads` is the scan pipeline's task count; `num_threads <= 1` is
/// the serial executor. Callers must not mutate `state` while the call is
/// in flight (same contract as ExecutePlan); concurrent scans of one table
/// are safe because reads write nothing.
///
/// All tasks share `guard` (may be null): a cancel/deadline/budget trip
/// observed by any task aborts the DAG — running scans drain at their next
/// morsel claim, queued tasks no-op, dependent pipelines never start — and
/// the first failure (lowest pipeline/task index) is returned.
///
/// `stats` (may be null) collects per-operator counters — one shared
/// atomic OpStats per logical node charged by every task — plus per-worker
/// morsel counts and per-pipeline DAG stats for EXPLAIN ANALYZE.
///
/// `trace` (may be null/inactive) records one "exec.pipeline" span per
/// pipeline, per-task "exec.worker" / "exec.build" / "exec.merge" spans
/// (detail "worker=<t>"), and one "exec.serial" span when the plan falls
/// back to the serial executor, all parented under the caller's span — so
/// a Perfetto view of a query shows exactly which part of the plan ran
/// where.
///
/// `dag_opts` names the submitting session for the scheduler's weighted
/// round-robin (see DagOptions); the default is the shared anonymous
/// bucket.
Result<storage::Relation> ParallelExecutePlan(
    const algebra::PlanPtr& plan, const storage::DatabaseState& state,
    size_t num_threads, common::QueryGuard* guard = nullptr,
    ExecStats* stats = nullptr, const common::TraceContext* trace = nullptr,
    const DagOptions& dag_opts = DagOptions{});

}  // namespace fgac::exec

#endif  // FGAC_EXEC_PARALLEL_H_
