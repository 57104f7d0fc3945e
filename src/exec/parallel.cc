#include "exec/parallel.h"

#include <algorithm>

#include "exec/exec_stats.h"
#include "exec/executor.h"
#include "exec/pipeline.h"

namespace fgac::exec {

using algebra::PlanKind;
using algebra::PlanPtr;

bool IsParallelizable(const PlanPtr& plan,
                      const storage::DatabaseState& state) {
  if (plan == nullptr) return false;
  if (plan->kind == PlanKind::kUnionAll) {
    return std::any_of(
        plan->children.begin(), plan->children.end(),
        [&](const PlanPtr& c) { return IsParallelizable(c, state); });
  }
  const algebra::Plan* src = FragmentSource(plan);
  return src != nullptr && state.GetTable(src->table) != nullptr;
}

Result<storage::Relation> ParallelExecutePlan(
    const PlanPtr& plan, const storage::DatabaseState& state,
    size_t num_threads, common::QueryGuard* guard, ExecStats* stats,
    const common::TraceContext* trace, const DagOptions& dag_opts) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  // Both serial paths (explicit n<=1 and the not-decomposable fallback)
  // funnel through here so the trace always shows where the plan actually
  // ran: a top-level "exec.serial" span on the calling thread means the
  // pipeline engine was bypassed entirely.
  auto run_serial = [&]() -> Result<storage::Relation> {
    common::ScopedSpan span(trace, "exec.serial");
    return ExecutePlan(plan, state, guard, stats);
  };
  // UNION ALL always pipelines: even a union of serial-only branches
  // benefits from running the branches as concurrent pipelines of one DAG.
  const bool pipelined = plan->kind == PlanKind::kUnionAll ||
                         FragmentSource(plan) != nullptr;
  if (num_threads <= 1 || !pipelined) return run_serial();
  return ExecutePlanPipelined(plan, state, num_threads, guard, stats, trace,
                              dag_opts);
}

}  // namespace fgac::exec
