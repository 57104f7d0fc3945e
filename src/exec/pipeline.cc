#include "exec/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "exec/eval.h"
#include "exec/exec_stats.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/parallel.h"
#include "exec/scheduler.h"
#include "storage/table_data.h"

namespace fgac::exec {

using algebra::PlanKind;
using algebra::PlanPtr;

namespace {

// ---------------------------------------------------------------------------
// Shared pipeline state (prepared serially, then read-only across tasks)
// ---------------------------------------------------------------------------

/// Shared morsel cursor over one base table: every scan task claims
/// [next, next + kMorselSize) ranges until the table is exhausted. This is
/// where intra-pipeline load balancing comes from; inter-pipeline balancing
/// is the scheduler's job.
struct MorselSource {
  const storage::TableData* table = nullptr;
  std::atomic<size_t> next{0};
  /// Shared guardrail for the whole query (may be null). One instance
  /// serves every task: its counters are atomic and Check() is read-only.
  common::QueryGuard* guard = nullptr;
  /// First-error-wins abort: a failing task raises it; the others see it
  /// at their next morsel claim and end their streams cleanly. The
  /// scheduler keeps its own DAG-level abort for tasks not yet started;
  /// this flag additionally stops tasks already mid-drain.
  std::atomic<bool> abort{false};
};

/// One hash-join stage on the fragment's left spine: the build side runs
/// exactly once as its own pipeline, then is probed read-only by every
/// scan task.
struct JoinStage {
  JoinKeys keys;
  HashJoinTable table;
};

/// Everything the per-task pipelines of one fragment share. Joins are
/// stored in left-spine bottom-up order; BuildThreadPipeline consumes them
/// in the same order.
struct SharedPipeline {
  MorselSource source;
  std::vector<std::unique_ptr<JoinStage>> joins;
};

// ---------------------------------------------------------------------------
// Per-task operators
// ---------------------------------------------------------------------------

/// Base-table scan over the shared morsel cursor. Unlike ScanOp, Open()
/// does NOT rewind (the cursor is shared); pipeline task trees are built,
/// drained once, and discarded inside one scheduler task.
class MorselScanOp final : public Operator {
 public:
  /// `morsel_count` (may be null) is the owning task's private counter;
  /// the task folds it into ExecStats when it finishes.
  explicit MorselScanOp(MorselSource* source, uint64_t* morsel_count = nullptr)
      : source_(source), morsel_count_(morsel_count) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(DataChunk& out) override {
    FGAC_FAULT_POINT("parallel.morsel");
    // Another task already failed: end this stream cleanly (the scheduler
    // discards partial output once it sees the failing task's status).
    if (source_->abort.load(std::memory_order_acquire)) {
      out.Reset(0);
      return false;
    }
    FGAC_RETURN_NOT_OK(common::GuardCheck(source_->guard));
    size_t total = source_->table->num_rows();
    while (true) {
      size_t start =
          source_->next.fetch_add(kMorselSize, std::memory_order_relaxed);
      if (start >= total) {
        out.Reset(0);
        return false;
      }
      FGAC_ASSIGN_OR_RETURN(
          size_t n, source_->table->ScanChunk(
                        start, std::min(kMorselSize, total - start), &out));
      if (n > 0) {
        if (morsel_count_ != nullptr) ++*morsel_count_;
        FGAC_RETURN_NOT_OK(common::GuardChargeRows(source_->guard, n));
        return true;
      }
    }
  }

 private:
  MorselSource* source_;
  uint64_t* morsel_count_ = nullptr;
};

/// Probe side of a shared hash join: owns its probe cursor (per-task
/// state), borrows the build table from the JoinStage.
class SharedProbeOp final : public Operator {
 public:
  SharedProbeOp(const JoinStage* stage, OperatorPtr left)
      : stage_(stage), left_(std::move(left)) {}
  Status Open() override {
    cursor_.Reset();
    return left_->Open();
  }
  Result<bool> Next(DataChunk& out) override {
    FGAC_ASSIGN_OR_RETURN(
        bool more, cursor_.Next(*left_, stage_->keys.left_keys,
                                stage_->keys.residual, stage_->table, out));
    // Same work-bound accounting as the serial HashJoinOp: duplicate build
    // keys can fan probe rows out well past what the scan charged.
    if (more) FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard_, out.size()));
    return more;
  }

 private:
  const JoinStage* stage_;
  OperatorPtr left_;
  HashProbeCursor cursor_;
};

/// Builds one task's private operator tree over the shared state. Shape
/// has already been validated by PipelineSourceNode; joins are consumed in
/// the same bottom-up order PrepareFragment produced them.
OperatorPtr BuildThreadPipeline(const PlanPtr& plan, SharedPipeline* shared,
                                size_t* next_join, ExecStats* stats,
                                uint64_t* morsel_count) {
  // Every task's operator for a given logical node charges the same shared
  // OpStats (atomic counters), so the rendered numbers are totals across
  // the fan-out.
  auto wrap = [stats, &plan](OperatorPtr op) {
    if (stats == nullptr) return op;
    return OperatorPtr(new StatsOp(stats->NodeFor(plan.get()), std::move(op)));
  };
  switch (plan->kind) {
    case PlanKind::kGet:
      return wrap(OperatorPtr(new MorselScanOp(&shared->source, morsel_count)));
    case PlanKind::kSelect:
      return wrap(OperatorPtr(new FilterOp(
          plan->predicates, BuildThreadPipeline(plan->children[0], shared,
                                                next_join, stats,
                                                morsel_count))));
    case PlanKind::kProject:
      return wrap(OperatorPtr(new ProjectOp(
          plan->exprs, BuildThreadPipeline(plan->children[0], shared,
                                           next_join, stats, morsel_count))));
    case PlanKind::kJoin: {
      OperatorPtr left = BuildThreadPipeline(plan->children[0], shared,
                                             next_join, stats, morsel_count);
      const JoinStage* stage = shared->joins[(*next_join)++].get();
      OperatorPtr probe(new SharedProbeOp(stage, std::move(left)));
      probe->set_guard(shared->source.guard);
      return wrap(std::move(probe));
    }
    default:
      return nullptr;  // unreachable: shape checked before decomposition
  }
}

Status DrainRows(Operator& root, std::vector<Row>* rows) {
  DataChunk chunk;
  while (true) {
    Result<bool> more = root.Next(chunk);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::OK();
    for (size_t i = 0; i < chunk.size(); ++i) rows->push_back(chunk.GetRow(i));
  }
}

// ---------------------------------------------------------------------------
// Decomposition: plan -> fragments -> pipeline DAG
// ---------------------------------------------------------------------------

/// How a fragment's pipelines combine into its result relation.
enum class FragMode { kGather, kAggregate, kDistinct, kSort, kSerial };

/// One non-UNION subtree of the plan: its shared morsel/join state, the
/// per-task outputs its scan pipeline produces, and the merged result once
/// its breaker pipeline (if any) has run. Fragments live in a std::deque so
/// task closures can hold stable pointers while later fragments append.
struct Fragment {
  PlanPtr root;
  PlanPtr child;  // the morsel pipeline subtree (== root unless a breaker)
  FragMode mode = FragMode::kGather;
  SharedPipeline shared;
  std::vector<PlanPtr> build_plans;  // per join stage, spine order
  std::vector<std::vector<Row>> per_task;
  std::vector<AggGroups> partials;
  std::optional<storage::Relation> result;
};

/// Wall-time + row meters for one pipeline, filled by its tasks and read
/// after the DAG settles. Lives in a std::deque for pointer stability.
struct SetMeter {
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> nanos{0};
};

/// Accumulates the DAG plus the bookkeeping ExecStats wants per pipeline.
struct DagBuilder {
  std::vector<PipelineTaskSet> sets;
  struct Seed {
    std::string kind;
    std::string label;
    std::vector<size_t> deps;
    size_t tasks = 0;
    SetMeter* meter = nullptr;
  };
  std::vector<Seed> seeds;
  std::deque<SetMeter> meters;
  bool any_scan = false;

  /// Meters are created before their set so task closures can capture the
  /// stable pointer by value.
  SetMeter* NewMeter() {
    meters.emplace_back();
    return &meters.back();
  }

  size_t AddSet(std::string kind, std::string label, std::vector<size_t> deps,
                std::string task_span,
                std::vector<std::function<Status(size_t)>> tasks,
                SetMeter* meter) {
    PipelineTaskSet set;
    set.tasks = std::move(tasks);
    set.deps = deps;
    set.task_span = std::move(task_span);
    set.label = kind + "(" + label + ")";
    seeds.push_back(Seed{kind, std::move(label), std::move(deps),
                         set.tasks.size(), meter});
    sets.push_back(std::move(set));
    return sets.size() - 1;
  }
};

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Resolves the fragment's source table and creates (but does not build)
/// its join stages, in left-spine bottom-up order.
Status PrepareFragment(const PlanPtr& plan, const storage::DatabaseState& state,
                       Fragment* frag, common::QueryGuard* guard) {
  switch (plan->kind) {
    case PlanKind::kGet: {
      const storage::TableData* data = state.GetTable(plan->table);
      if (data == nullptr) {
        return Status::ExecutionError("no data for table '" + plan->table +
                                      "'");
      }
      frag->shared.source.table = data;
      frag->shared.source.guard = guard;
      return Status::OK();
    }
    case PlanKind::kSelect:
    case PlanKind::kProject:
      return PrepareFragment(plan->children[0], state, frag, guard);
    case PlanKind::kJoin: {
      FGAC_RETURN_NOT_OK(
          PrepareFragment(plan->children[0], state, frag, guard));
      auto stage = std::make_unique<JoinStage>();
      stage->keys = SplitJoinKeys(plan->predicates,
                                  algebra::OutputArity(*plan->children[0]));
      frag->shared.joins.push_back(std::move(stage));
      frag->build_plans.push_back(plan->children[1]);
      return Status::OK();
    }
    default:
      return Status::ExecutionError("plan shape is not a parallel pipeline");
  }
}

void RecordRows(ExecStats* stats, const algebra::Plan* node, uint64_t rows) {
  if (stats != nullptr) {
    stats->NodeFor(node)->rows_out.fetch_add(rows, std::memory_order_relaxed);
  }
}

/// Appends one fragment's pipelines (builds -> scan -> optional merge) to
/// the DAG, or recurses over UNION ALL branches. Fragment order is the
/// depth-first plan order, which AssembleResult later consumes in lockstep.
Status AddFragments(const PlanPtr& plan, const storage::DatabaseState& state,
                    size_t num_threads, common::QueryGuard* guard,
                    ExecStats* stats, std::deque<Fragment>* frags,
                    DagBuilder* dag) {
  if (plan->kind == PlanKind::kUnionAll) {
    for (const PlanPtr& child : plan->children) {
      FGAC_RETURN_NOT_OK(
          AddFragments(child, state, num_threads, guard, stats, frags, dag));
    }
    return Status::OK();
  }

  const bool breaker_root = plan->kind == PlanKind::kAggregate ||
                            plan->kind == PlanKind::kDistinct ||
                            plan->kind == PlanKind::kSort;
  const algebra::Plan* source = FragmentSource(plan);

  frags->emplace_back();
  Fragment* frag = &frags->back();
  frag->root = plan;
  const storage::DatabaseState* st = &state;

  if (source == nullptr) {
    // Not a morsel shape (kValues/kLimit branch, non-equi join, ...): one
    // single-task pipeline running the serial engine, so a UNION ALL over
    // mixed branches still executes everything through one DAG.
    frag->mode = FragMode::kSerial;
    SetMeter* meter = dag->NewMeter();
    dag->AddSet("serial", PlanNodeLabel(*plan), {}, "exec.serial",
                {[frag, st, guard, stats, meter](size_t) -> Status {
                  auto t0 = std::chrono::steady_clock::now();
                  Result<storage::Relation> r =
                      ExecutePlan(frag->root, *st, guard, stats);
                  meter->nanos.fetch_add(ElapsedNanos(t0),
                                         std::memory_order_relaxed);
                  if (!r.ok()) return r.status();
                  meter->rows.fetch_add(r.value().num_rows(),
                                        std::memory_order_relaxed);
                  frag->result = std::move(r).value();
                  return Status::OK();
                }},
                meter);
    return Status::OK();
  }

  frag->child = breaker_root ? plan->children[0] : plan;
  switch (plan->kind) {
    case PlanKind::kAggregate:
      frag->mode = FragMode::kAggregate;
      break;
    case PlanKind::kDistinct:
      frag->mode = FragMode::kDistinct;
      break;
    case PlanKind::kSort:
      frag->mode = FragMode::kSort;
      break;
    default:
      frag->mode = FragMode::kGather;
      break;
  }
  FGAC_RETURN_NOT_OK(PrepareFragment(frag->child, state, frag, guard));

  // Build pipelines: one single-task set per join stage, no dependencies —
  // independent build sides of one query now run concurrently (the old
  // engine built them serially), and build sides of *different* queries
  // interleave on the same pool.
  std::vector<size_t> build_ids;
  for (size_t j = 0; j < frag->shared.joins.size(); ++j) {
    SetMeter* meter = dag->NewMeter();
    build_ids.push_back(dag->AddSet(
        "build", PlanNodeLabel(*frag->build_plans[j]), {}, "exec.build",
        {[frag, j, st, guard, stats, meter](size_t) -> Status {
          auto t0 = std::chrono::steady_clock::now();
          JoinStage* stage = frag->shared.joins[j].get();
          FGAC_ASSIGN_OR_RETURN(
              OperatorPtr build,
              BuildPhysicalPlan(frag->build_plans[j], *st, guard, stats));
          FGAC_RETURN_NOT_OK(build->Open());
          FGAC_RETURN_NOT_OK(
              stage->table.BuildFrom(*build, stage->keys.right_keys, guard));
          meter->rows.fetch_add(stage->table.num_rows(),
                                std::memory_order_relaxed);
          meter->nanos.fetch_add(ElapsedNanos(t0), std::memory_order_relaxed);
          return Status::OK();
        }},
        meter));
  }

  // Scan pipeline: num_threads tasks over the shared morsel cursor, gated
  // on every build of this fragment.
  dag->any_scan = true;
  const FragMode mode = frag->mode;
  frag->per_task.resize(num_threads);
  if (mode == FragMode::kAggregate) frag->partials.resize(num_threads);
  SetMeter* scan_meter = dag->NewMeter();
  std::vector<std::function<Status(size_t)>> scan_tasks;
  scan_tasks.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    scan_tasks.push_back([frag, guard, stats, mode,
                          scan_meter](size_t task) -> Status {
      auto t0 = std::chrono::steady_clock::now();
      size_t next_join = 0;
      uint64_t morsels = 0;
      OperatorPtr root = BuildThreadPipeline(frag->child, &frag->shared,
                                             &next_join, stats, &morsels);
      if (mode == FragMode::kDistinct) {
        // Per-task pre-dedup shrinks what crosses the merge; the merge
        // pipeline eliminates duplicates that appeared on different tasks.
        OperatorPtr op(new DistinctOp(std::move(root)));
        op->set_guard(guard);
        root = std::move(op);
      }
      Status status = root->Open();
      if (status.ok()) {
        if (mode == FragMode::kAggregate) {
          status = AccumulateGroups(*root, frag->root->group_by,
                                    frag->root->aggs, &frag->partials[task],
                                    guard);
        } else {
          status = DrainRows(*root, &frag->per_task[task]);
        }
      }
      if (!status.ok()) {
        // Make peers of this scan drain at their next morsel claim even
        // before the scheduler's DAG-level abort propagates.
        frag->shared.source.abort.store(true, std::memory_order_release);
      }
      // Morsel counts go through the locked adder: scan sets of different
      // UNION ALL branches may run concurrently and share slot indices.
      if (stats != nullptr) stats->AddWorkerMorsels(task, morsels);
      uint64_t rows = mode == FragMode::kAggregate
                          ? frag->partials[task].size()
                          : frag->per_task[task].size();
      scan_meter->rows.fetch_add(rows, std::memory_order_relaxed);
      scan_meter->nanos.fetch_add(ElapsedNanos(t0), std::memory_order_relaxed);
      return status;
    });
  }
  size_t scan_id = dag->AddSet("scan", PlanNodeLabel(*source), build_ids,
                               "exec.worker", std::move(scan_tasks),
                               scan_meter);

  if (!breaker_root) return Status::OK();

  // Merge pipeline: the breaker at the fragment root, single task, gated
  // on the scan.
  SetMeter* merge_meter = dag->NewMeter();
  dag->AddSet(
      "merge", PlanNodeLabel(*plan), {scan_id}, "exec.merge",
      {[frag, guard, stats, merge_meter, num_threads](size_t) -> Status {
        auto t0 = std::chrono::steady_clock::now();
        storage::Relation out(algebra::OutputNames(*frag->root));
        switch (frag->mode) {
          case FragMode::kAggregate: {
            AggGroups merged = std::move(frag->partials[0]);
            for (size_t t = 1; t < num_threads; ++t) {
              FGAC_RETURN_NOT_OK(merged.Merge(std::move(frag->partials[t]),
                                              frag->root->aggs.size()));
            }
            out.mutable_rows() = FinishGroups(merged, frag->root->aggs,
                                              frag->root->group_by.empty());
            break;
          }
          case FragMode::kDistinct: {
            // Duplicates that appeared on different tasks meet in one key
            // table, fed the per-task rows a chunk at a time.
            KeyTable seen;
            DataChunk chunk;
            Selection fresh;
            for (std::vector<Row>& rows : frag->per_task) {
              size_t start = 0;
              while (start < rows.size()) {
                chunk.Reset(rows[start].size());
                size_t n = AppendRowsToChunk(
                    rows, start, DataChunk::kDefaultCapacity, &chunk);
                fresh.clear();
                SelectNewRows(chunk, &seen, &fresh);
                for (uint32_t i : fresh) {
                  out.mutable_rows().push_back(std::move(rows[start + i]));
                }
                start += n;
              }
            }
            break;
          }
          case FragMode::kSort: {
            // Parallel gather, single-task sort: sorting is a full-input
            // barrier anyway, so only the work below it fans out.
            storage::Relation gathered(algebra::OutputNames(*frag->child));
            size_t total = 0;
            for (const std::vector<Row>& rows : frag->per_task) {
              total += rows.size();
            }
            gathered.mutable_rows().reserve(total);
            for (std::vector<Row>& rows : frag->per_task) {
              for (Row& r : rows) {
                gathered.mutable_rows().push_back(std::move(r));
              }
            }
            SortOp sorter(frag->root->sort_items,
                          OperatorPtr(new ScanOp(&gathered.rows())));
            sorter.set_guard(guard);
            FGAC_RETURN_NOT_OK(sorter.Open());
            DataChunk chunk;
            while (true) {
              FGAC_ASSIGN_OR_RETURN(bool more, sorter.Next(chunk));
              if (!more) break;
              out.AppendChunk(chunk);
            }
            break;
          }
          default:
            return Status::ExecutionError(
                "merge pipeline on non-breaker root");
        }
        // The merge runs outside any operator; attribute the final row
        // count to the breaker node so the printout matches the serial
        // plan shape.
        RecordRows(stats, frag->root.get(), out.num_rows());
        merge_meter->rows.fetch_add(out.num_rows(), std::memory_order_relaxed);
        merge_meter->nanos.fetch_add(ElapsedNanos(t0),
                                     std::memory_order_relaxed);
        frag->result = std::move(out);
        return Status::OK();
      }},
      merge_meter);
  return Status::OK();
}

storage::Relation GatherToRelation(const PlanPtr& plan,
                                   std::vector<std::vector<Row>> per_task) {
  storage::Relation out(algebra::OutputNames(*plan));
  size_t total = 0;
  for (const std::vector<Row>& rows : per_task) total += rows.size();
  out.mutable_rows().reserve(total);
  for (std::vector<Row>& rows : per_task) {
    for (Row& r : rows) out.mutable_rows().push_back(std::move(r));
  }
  return out;
}

/// Consumes fragments in the same depth-first order AddFragments appended
/// them, concatenating UNION ALL branches.
storage::Relation AssembleResult(const PlanPtr& plan, ExecStats* stats,
                                 std::deque<Fragment>* frags, size_t* cursor) {
  if (plan->kind == PlanKind::kUnionAll) {
    storage::Relation out(algebra::OutputNames(*plan));
    for (const PlanPtr& child : plan->children) {
      storage::Relation r = AssembleResult(child, stats, frags, cursor);
      for (Row& row : r.mutable_rows()) {
        out.mutable_rows().push_back(std::move(row));
      }
    }
    RecordRows(stats, plan.get(), out.num_rows());
    return out;
  }
  Fragment& frag = (*frags)[(*cursor)++];
  if (frag.result.has_value()) return std::move(*frag.result);
  return GatherToRelation(frag.root, std::move(frag.per_task));
}

}  // namespace

const algebra::Plan* PipelineSourceNode(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kGet:
      return plan.get();
    case PlanKind::kSelect:
    case PlanKind::kProject:
      return PipelineSourceNode(plan->children[0]);
    case PlanKind::kJoin: {
      size_t left_arity = algebra::OutputArity(*plan->children[0]);
      JoinKeys keys = SplitJoinKeys(plan->predicates, left_arity);
      if (keys.left_keys.empty()) return nullptr;
      return PipelineSourceNode(plan->children[0]);
    }
    default:
      return nullptr;
  }
}

const algebra::Plan* FragmentSource(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kAggregate:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
      return PipelineSourceNode(plan->children[0]);
    default:
      return PipelineSourceNode(plan);
  }
}

Result<storage::Relation> ExecutePlanPipelined(
    const PlanPtr& plan, const storage::DatabaseState& state,
    size_t num_threads, common::QueryGuard* guard, ExecStats* stats,
    const common::TraceContext* trace, const DagOptions& dag_opts) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  num_threads = std::max<size_t>(1, num_threads);

  std::deque<Fragment> frags;
  DagBuilder dag;
  FGAC_RETURN_NOT_OK(
      AddFragments(plan, state, num_threads, guard, stats, &frags, &dag));
  if (stats != nullptr && dag.any_scan &&
      stats->worker_morsels().size() != num_threads) {
    stats->SetThreads(num_threads);
  }

  std::vector<char> started;
  Status dag_status = PipelineScheduler::Shared().RunDag(
      std::move(dag.sets), guard, trace, &started, dag_opts);

  if (stats != nullptr) {
    for (size_t i = 0; i < dag.seeds.size(); ++i) {
      const DagBuilder::Seed& seed = dag.seeds[i];
      PipelineStat p;
      p.kind = seed.kind;
      p.label = seed.label;
      p.deps = seed.deps;
      p.tasks = seed.tasks;
      p.rows = seed.meter->rows.load(std::memory_order_relaxed);
      p.nanos = seed.meter->nanos.load(std::memory_order_relaxed);
      p.cancelled = i < started.size() && started[i] == 0;
      stats->AddPipelineStat(std::move(p));
    }
  }
  FGAC_RETURN_NOT_OK(dag_status);

  size_t cursor = 0;
  return AssembleResult(plan, stats, &frags, &cursor);
}

}  // namespace fgac::exec
