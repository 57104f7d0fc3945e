#include "exec/scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace fgac::exec {

/// Shared state of one in-flight DAG. Heap-allocated and shared_ptr-held by
/// every dispatched task so nothing dangles regardless of completion order;
/// the caller's RunDag frame is the last owner standing.
struct PipelineScheduler::DagRun {
  std::vector<PipelineTaskSet> sets;
  /// Per set: dependencies not yet completed / tasks not yet finished.
  std::unique_ptr<std::atomic<size_t>[]> deps_left;
  std::unique_ptr<std::atomic<size_t>[]> tasks_left;
  /// Per set: sets gated on it (reverse edges of `deps`).
  std::vector<std::vector<size_t>> dependents;
  /// Per set, per task: first failure wins in (set, task) order.
  std::vector<std::vector<Status>> statuses;
  /// Per set: tracer timestamp at dispatch, for the "exec.pipeline" span.
  std::vector<int64_t> start_us;
  /// Per set: 1 once its tasks actually ran (0 = cancelled before start).
  std::vector<char> started;
  /// First-error-wins: raised by any failing task; later sets observe it at
  /// dispatch and are cancelled without starting.
  std::atomic<bool> abort{false};
  common::QueryGuard* guard = nullptr;
  /// Fair-dispatch identity of the submitting session.
  DagOptions opts;
  common::TraceContext trace;  // copied: valid for the workers' lifetime
  std::mutex mu;
  std::condition_variable done;
  size_t sets_remaining = 0;
};

Status PipelineScheduler::RunDag(std::vector<PipelineTaskSet> sets,
                                 common::QueryGuard* guard,
                                 const common::TraceContext* trace,
                                 std::vector<char>* started,
                                 const DagOptions& opts) {
  if (sets.empty()) return Status::OK();
  const size_t n = sets.size();
  for (size_t s = 0; s < n; ++s) {
    for (size_t d : sets[s].deps) {
      if (d >= s) {
        return Status::ExecutionError(
            "pipeline DAG must be in topological order");
      }
    }
  }
  auto run = std::make_shared<DagRun>();
  run->sets = std::move(sets);
  run->deps_left = std::make_unique<std::atomic<size_t>[]>(n);
  run->tasks_left = std::make_unique<std::atomic<size_t>[]>(n);
  run->dependents.resize(n);
  run->statuses.resize(n);
  run->start_us.assign(n, 0);
  run->started.assign(n, 0);
  for (size_t s = 0; s < n; ++s) {
    const PipelineTaskSet& set = run->sets[s];
    run->deps_left[s].store(set.deps.size(), std::memory_order_relaxed);
    run->tasks_left[s].store(set.tasks.size(), std::memory_order_relaxed);
    run->statuses[s].assign(std::max<size_t>(1, set.tasks.size()),
                            Status::OK());
    for (size_t d : set.deps) run->dependents[d].push_back(s);
  }
  run->guard = guard;
  run->opts = opts;
  if (trace != nullptr) run->trace = *trace;
  run->sets_remaining = n;
  dags_executed_.fetch_add(1, std::memory_order_relaxed);
  if (opts.progress != nullptr) {
    opts.progress->sets_total.fetch_add(n, std::memory_order_relaxed);
  }

  for (size_t s = 0; s < n; ++s) {
    if (run->sets[s].deps.empty()) DispatchSet(run, s);
  }
  {
    std::unique_lock<std::mutex> lock(run->mu);
    run->done.wait(lock, [&] { return run->sets_remaining == 0; });
  }
  if (started != nullptr) *started = run->started;
  for (size_t s = 0; s < n; ++s) {
    for (Status& st : run->statuses[s]) {
      if (!st.ok()) return std::move(st);
    }
  }
  return Status::OK();
}

void PipelineScheduler::DispatchSet(const std::shared_ptr<DagRun>& run,
                                    size_t s) {
  DagRun& r = *run;
  if (r.trace.active()) r.start_us[s] = r.trace.tracer->NowUs();
  if (r.abort.load(std::memory_order_acquire)) {
    // The DAG already failed: dependents of the failing pipeline must
    // never start (their inputs are garbage).
    pipelines_cancelled_.fetch_add(1, std::memory_order_relaxed);
    FinishSet(run, s, /*ran=*/false);
    return;
  }
  Status injected = FGAC_FAULT_CHECK("scheduler.dispatch");
  if (!injected.ok()) {
    r.statuses[s][0] = std::move(injected);
    r.abort.store(true, std::memory_order_release);
    pipelines_cancelled_.fetch_add(1, std::memory_order_relaxed);
    FinishSet(run, s, /*ran=*/false);
    return;
  }
  const size_t tasks = r.sets[s].tasks.size();
  if (tasks == 0) {
    pipelines_completed_.fetch_add(1, std::memory_order_relaxed);
    FinishSet(run, s, /*ran=*/true);
    return;
  }
  tasks_dispatched_.fetch_add(tasks, std::memory_order_relaxed);
  for (size_t t = 0; t < tasks; ++t) {
    // Submit-to-start delta is the task's queue wait; attributed to the
    // DAG's progress record (fgac_activity) and the scheduler totals.
    auto submitted = std::chrono::steady_clock::now();
    common::ThreadPool::Shared().Submit(
        [this, run, s, t, submitted] {
          auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - submitted);
          NoteTaskWait(*run, static_cast<uint64_t>(waited.count()));
          RunTask(run, s, t);
        },
        r.opts.session_key, r.opts.weight);
  }
}

void PipelineScheduler::RunTask(const std::shared_ptr<DagRun>& run, size_t s,
                                size_t t) {
  DagRun& r = *run;
  const PipelineTaskSet& set = r.sets[s];
  Status status = Status::OK();
  {
    const common::TraceContext* tctx =
        (r.trace.active() && !set.task_span.empty()) ? &r.trace : nullptr;
    common::ScopedSpan span(tctx, set.task_span);
    span.set_detail("worker=" + std::to_string(t));
    if (!r.abort.load(std::memory_order_acquire)) {
      auto t0 = std::chrono::steady_clock::now();
      Status injected = FGAC_FAULT_CHECK("pipeline.run");
      if (injected.ok()) injected = common::GuardCheck(r.guard);
      status = injected.ok() ? set.tasks[t](t) : std::move(injected);
      auto ran_for = std::chrono::steady_clock::now() - t0;
      NoteTaskRun(r, static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             ran_for)
                             .count()));
    }
    // else: a peer already failed while this task sat queued; drain as a
    // clean no-op (the DAG's status comes from the actual failure).
    if (!status.ok()) {
      r.abort.store(true, std::memory_order_release);
      span.set_detail("worker=" + std::to_string(t) +
                      " error=" + status.message());
    }
  }
  if (!status.ok()) r.statuses[s][t] = std::move(status);
  if (r.tasks_left[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pipelines_completed_.fetch_add(1, std::memory_order_relaxed);
    FinishSet(run, s, /*ran=*/true);
  }
}

void PipelineScheduler::FinishSet(const std::shared_ptr<DagRun>& run, size_t s,
                                  bool ran) {
  DagRun& r = *run;
  if (r.trace.active()) {
    common::TraceSpan span;
    span.trace_id = r.trace.trace_id;
    span.span_id = r.trace.tracer->NewSpanId();
    span.parent_id = r.trace.parent_span;
    span.name = "exec.pipeline";
    span.detail = "pipeline=" + std::to_string(s) + " " + r.sets[s].label +
                  " tasks=" + std::to_string(r.sets[s].tasks.size()) +
                  (ran ? "" : " cancelled");
    span.user = r.trace.user;
    span.start_us = r.start_us[s];
    span.dur_us = r.trace.tracer->NowUs() - r.start_us[s];
    span.thread_id = common::CurrentThreadId();
    r.trace.tracer->Record(std::move(span));
  }
  r.started[s] = ran ? 1 : 0;
  if (r.opts.progress != nullptr) {
    // Settled (ran or cancelled) — fgac_activity's pipelines_done reaches
    // pipelines_total exactly when the DAG has drained.
    r.opts.progress->sets_done.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t d : r.dependents[s]) {
    if (r.deps_left[d].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      DispatchSet(run, d);
    }
  }
  std::lock_guard<std::mutex> lock(r.mu);
  if (--r.sets_remaining == 0) r.done.notify_all();
}

void PipelineScheduler::NoteTaskWait(DagRun& run, uint64_t us) {
  task_queue_wait_us_.fetch_add(us, std::memory_order_relaxed);
  if (run.opts.progress != nullptr) {
    run.opts.progress->queue_wait_us.fetch_add(us, std::memory_order_relaxed);
  }
}

void PipelineScheduler::NoteTaskRun(DagRun& run, uint64_t us) {
  task_run_us_.fetch_add(us, std::memory_order_relaxed);
  if (run.opts.progress != nullptr) {
    run.opts.progress->run_us.fetch_add(us, std::memory_order_relaxed);
  }
}

PipelineScheduler& PipelineScheduler::Shared() {
  static PipelineScheduler* scheduler = new PipelineScheduler();
  return *scheduler;
}

}  // namespace fgac::exec
