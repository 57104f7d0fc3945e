#ifndef FGAC_EXEC_SCHEDULER_H_
#define FGAC_EXEC_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/activity.h"
#include "common/query_guard.h"
#include "common/status.h"
#include "common/trace.h"

namespace fgac::exec {

/// One schedulable pipeline of a query DAG: a set of tasks that may run
/// concurrently, gated on other pipelines of the same DAG. Scan pipelines
/// have one task per worker over a shared morsel cursor; pipeline breakers
/// (hash-join build, aggregate/distinct/sort merge) have exactly one.
struct PipelineTaskSet {
  /// The pipeline's tasks; each receives its own index. All tasks of a set
  /// are dispatched together once the set's dependencies have completed.
  /// Tasks must not block on other tasks — they run on the shared pool.
  std::vector<std::function<Status(size_t)>> tasks;
  /// Indices into the same DAG vector of pipelines that must complete
  /// before this one starts. Must all be smaller than this set's own index
  /// (i.e. the DAG is given in topological order), which makes cycles
  /// unrepresentable.
  std::vector<size_t> deps;
  /// Span name recorded around each task ("exec.worker" for scan tasks —
  /// the pre-pipeline trace contract — "exec.build", "exec.merge", ...).
  /// Empty records no per-task span.
  std::string task_span;
  /// Human label for the pipeline-level "exec.pipeline" span detail
  /// ("scan(grades)", "build(Join)", "probe_batch").
  std::string label;
};

/// Submitting-session identity for fair dispatch. DAGs carrying the same
/// session_key share one weighted-round-robin bucket of the pool's queue
/// (common::FairTaskQueue); weight is the number of ready tasks the bucket
/// may release per rotation visit (so a weight-3 session gets ~3x the
/// worker bandwidth of a weight-1 session while both have work queued).
struct DagOptions {
  /// 0 = anonymous: all anonymous DAGs share one bucket.
  uint64_t session_key = 0;
  uint32_t weight = 1;
  /// When non-null, the scheduler publishes live progress here: pipeline
  /// sets dispatched/settled plus per-task wall-time attributed to pool
  /// queue wait vs run. Must outlive RunDag (the statement's
  /// StatementActivity owns it in practice).
  common::DagProgress* progress = nullptr;
};

/// Schedules pipeline DAGs from any number of concurrent queries onto the
/// shared pool. Replaces the per-query morsel fan-out: every query
/// decomposes into PipelineTaskSets (exec/pipeline.cc), validity probe
/// batches submit here too (core/validity.cc), and all of it interleaves
/// on one pool.
///
/// Execution model: all dependency-free sets are dispatched immediately;
/// when the last task of a set finishes, its dependents' counters are
/// decremented and newly-runnable sets are dispatched from the completion
/// handler (no dedicated scheduler thread, no task ever waits on another).
/// The calling thread blocks until the whole DAG settles — so RunDag must
/// not be called from a pool worker.
///
/// Failure: the first task error aborts the DAG. Already-queued tasks of
/// the same generation drain as no-ops; sets whose dependencies complete
/// after the abort are *cancelled* — their tasks never start (counted in
/// pipelines_cancelled()). Every dispatched task is joined before RunDag
/// returns, and the reported error is deterministic: the failure with the
/// lowest (set index, task index), matching the old fan-out's
/// lowest-worker-index rule.
class PipelineScheduler {
 public:
  PipelineScheduler() = default;
  PipelineScheduler(const PipelineScheduler&) = delete;
  PipelineScheduler& operator=(const PipelineScheduler&) = delete;

  /// Runs one query's pipeline DAG to completion. `guard` (may be null) is
  /// checked before each task body so a tripped deadline/cancel stops
  /// pipelines that have not yet done work. `trace` (may be null/inactive)
  /// gets one "exec.pipeline" span per set plus the per-task spans named
  /// by the sets. `started`, when non-null, is resized to the DAG and
  /// records which sets actually ran (0 = cancelled before start).
  ///
  /// Fault sites: "scheduler.dispatch" fires once per set at dispatch
  /// time; "pipeline.run" fires in each task before its body.
  ///
  /// `opts` names the submitting session for fair dispatch: each ready
  /// task is submitted once to the pool under the session's key and
  /// weight, and workers pop the pool's queue in WRR order, so concurrent
  /// sessions share workers by weight instead of by arrival order.
  Status RunDag(std::vector<PipelineTaskSet> sets, common::QueryGuard* guard,
                const common::TraceContext* trace,
                std::vector<char>* started = nullptr,
                const DagOptions& opts = DagOptions{});

  uint64_t dags_executed() const {
    return dags_executed_.load(std::memory_order_relaxed);
  }
  uint64_t tasks_dispatched() const {
    return tasks_dispatched_.load(std::memory_order_relaxed);
  }
  /// Sets whose tasks all executed (successfully or not).
  uint64_t pipelines_completed() const {
    return pipelines_completed_.load(std::memory_order_relaxed);
  }
  /// Sets released after a DAG abort: their tasks never started.
  uint64_t pipelines_cancelled() const {
    return pipelines_cancelled_.load(std::memory_order_relaxed);
  }

  /// Cumulative per-task wall-time split: pool queue wait (submit to
  /// start) vs task-body run time, across every DAG this scheduler executed.
  uint64_t total_task_queue_wait_us() const {
    return task_queue_wait_us_.load(std::memory_order_relaxed);
  }
  uint64_t total_task_run_us() const {
    return task_run_us_.load(std::memory_order_relaxed);
  }

  /// Process-wide scheduler over ThreadPool::Shared().
  static PipelineScheduler& Shared();

 private:
  struct DagRun;

  void DispatchSet(const std::shared_ptr<DagRun>& run, size_t s);
  void RunTask(const std::shared_ptr<DagRun>& run, size_t s, size_t t);
  void FinishSet(const std::shared_ptr<DagRun>& run, size_t s, bool ran);
  void NoteTaskWait(DagRun& run, uint64_t us);
  void NoteTaskRun(DagRun& run, uint64_t us);

  std::atomic<uint64_t> dags_executed_{0};
  std::atomic<uint64_t> tasks_dispatched_{0};
  std::atomic<uint64_t> pipelines_completed_{0};
  std::atomic<uint64_t> pipelines_cancelled_{0};
  std::atomic<uint64_t> task_queue_wait_us_{0};
  std::atomic<uint64_t> task_run_us_{0};
};

}  // namespace fgac::exec

#endif  // FGAC_EXEC_SCHEDULER_H_
