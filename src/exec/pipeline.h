#ifndef FGAC_EXEC_PIPELINE_H_
#define FGAC_EXEC_PIPELINE_H_

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

/// Walks the left spine down to the pipeline's source. Returns the kGet
/// node feeding the pipeline, or nullptr when the shape cannot be
/// decomposed into a morsel pipeline (non-table source, or a join without
/// equi-keys, which would need a nested-loop join).
const algebra::Plan* PipelineSourceNode(const algebra::PlanPtr& plan);

/// The scan node feeding the fragment rooted at `plan`: PipelineSourceNode
/// of the plan, looking through one Aggregate, Distinct or Sort root (the
/// fragment's merge breaker). nullptr when the fragment is not a morsel
/// pipeline and runs on the serial engine instead.
const algebra::Plan* FragmentSource(const algebra::PlanPtr& plan);

/// Decomposes `plan` into a DAG of pipelines and runs it on the shared
/// PipelineScheduler. This is the engine under ParallelExecutePlan; callers
/// normally go through that entry point, which also owns the serial
/// fallback for shapes that do not decompose.
///
/// Breaker rules: a pipeline ends where its output must be fully
/// materialized before a consumer can start —
///   - each equi-join BUILD side is its own single-task pipeline
///     (independent builds of one query run concurrently);
///   - the probe-side SCAN pipeline (one task per worker over the shared
///     morsel cursor) depends on every build pipeline of its fragment;
///   - aggregation / DISTINCT / SORT add a single-task MERGE pipeline
///     depending on the scan (partial-state merge, final dedup, gathered
///     sort);
///   - UNION ALL branches decompose independently — their pipelines share
///     the DAG with no cross-branch edges, so branches genuinely overlap —
///     and a branch that cannot be decomposed runs as a single-task SERIAL
///     pipeline executing the serial engine.
///
/// Guard/trace/stats threading: all tasks share `guard` (first-error-wins
/// abort drains the DAG; dependents of a failed pipeline never start);
/// `trace` gets one "exec.pipeline" span per pipeline plus per-task
/// "exec.worker" / "exec.build" / "exec.merge" / "exec.serial" spans;
/// `stats` additionally collects one PipelineStat per pipeline for
/// EXPLAIN ANALYZE.
///
/// Must not be called from a pool worker thread (the caller blocks on DAG
/// completion).
Result<storage::Relation> ExecutePlanPipelined(
    const algebra::PlanPtr& plan, const storage::DatabaseState& state,
    size_t num_threads, common::QueryGuard* guard = nullptr,
    ExecStats* stats = nullptr, const common::TraceContext* trace = nullptr,
    const DagOptions& dag_opts = DagOptions{});

}  // namespace fgac::exec

#endif  // FGAC_EXEC_PIPELINE_H_
