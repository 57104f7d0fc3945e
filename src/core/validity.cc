#include "core/validity.h"

#include <algorithm>
#include <functional>
#include <set>

#include "algebra/binder.h"
#include "algebra/normalize.h"
#include "common/fault_injection.h"
#include "core/view_pruning.h"
#include "exec/executor.h"
#include "exec/row_finder.h"
#include "exec/scheduler.h"
#include "optimizer/implication.h"

namespace fgac::core {

using algebra::MakeBinaryScalar;
using algebra::MakeColumn;
using algebra::MakeLiteralScalar;
using algebra::NormalizePredicates;
using algebra::PlanKind;
using algebra::PlanPtr;
using algebra::ScalarKind;
using algebra::ScalarPtr;
using optimizer::ExprId;
using optimizer::GroupId;
using optimizer::ImpliesAll;
using optimizer::MemoExpr;

namespace {

constexpr int kMaxOriginDepth = 24;
constexpr size_t kMaxQueryLiterals = 32;

MemoExpr SelectExpr(std::vector<ScalarPtr> preds, GroupId child) {
  MemoExpr e;
  e.kind = PlanKind::kSelect;
  e.predicates = NormalizePredicates(std::move(preds));
  e.children = {child};
  return e;
}

MemoExpr ProjectExpr(std::vector<ScalarPtr> exprs, GroupId child) {
  MemoExpr e;
  e.kind = PlanKind::kProject;
  e.exprs = std::move(exprs);
  e.children = {child};
  return e;
}

MemoExpr DistinctExpr(GroupId child) {
  MemoExpr e;
  e.kind = PlanKind::kDistinct;
  e.children = {child};
  return e;
}

/// Whether `plan` yields a row in `state`, under `guard`. A plan of shape
/// π*(σ*(Get)) asks the row finder for one row of its table, which takes
/// the key index when the selections pin the key; any other plan runs as a
/// LIMIT-1 query.
Result<bool> VisiblyNonEmpty(const PlanPtr& plan,
                             const storage::DatabaseState& state,
                             common::QueryGuard* guard) {
  if (std::optional<exec::TableFilter> filter = exec::AsTableFilter(plan)) {
    if (const storage::TableData* data = state.GetTable(filter->table)) {
      FGAC_ASSIGN_OR_RETURN(
          std::vector<size_t> rows,
          exec::FindRows(*data, filter->conjuncts, /*limit=*/1, guard));
      return !rows.empty();
    }
  }
  FGAC_ASSIGN_OR_RETURN(
      storage::Relation rows,
      exec::ExecutePlan(algebra::MakeLimit(1, plan), state, guard));
  return !rows.empty();
}

/// Runs the visible-non-emptiness probes of one inference round as a batch:
/// nonempty[i] tells whether plans[i] produced at least one row, and
/// (*guard_rows)[i] is the row charge of its guard. With `parallelism` > 1
/// the batch runs as one single-pipeline DAG on the shared
/// PipelineScheduler — validity probes are first-class pipeline work and
/// interleave with executing queries on the same worker pool. Each probe
/// task uses the SERIAL executor because pool tasks must not re-enter the
/// pool (no nested waits). Safe because probes only read `state` and
/// immutable plan nodes — all memo mutation happens outside this function.
/// A probe that errors counts as empty, as in the serial code — including
/// a probe tripping its own `limits` (per-probe guard) or an injected
/// "validity.probe" fault; probe tasks therefore always return OK to the
/// scheduler, so one failing probe never cancels its batch peers. Missing
/// a conditional marking is sound: it can only reject more. `parent` (the
/// whole-check guard) propagates the check-wide deadline and cancellation
/// into every probe.
std::vector<char> RunNonEmptinessProbes(const std::vector<PlanPtr>& plans,
                                        const storage::DatabaseState& state,
                                        size_t parallelism,
                                        const common::QueryLimits& limits,
                                        const common::QueryGuard* parent,
                                        const exec::DagOptions& dag_opts,
                                        std::vector<uint64_t>* guard_rows) {
  std::vector<char> nonempty(plans.size(), 0);
  guard_rows->assign(plans.size(), 0);
  auto run_one = [&plans, &state, &nonempty, &limits, parent,
                  guard_rows](size_t i) {
    Status injected = FGAC_FAULT_CHECK("validity.probe");
    if (!injected.ok()) return;
    common::QueryGuard probe_guard(limits, parent);
    Result<bool> r = VisiblyNonEmpty(plans[i], state, &probe_guard);
    nonempty[i] = r.ok() && r.value() ? 1 : 0;
    (*guard_rows)[i] = probe_guard.rows_charged();
  };
  if (parallelism <= 1 || plans.size() <= 1) {
    for (size_t i = 0; i < plans.size(); ++i) run_one(i);
    return nonempty;
  }
  exec::PipelineTaskSet batch;
  batch.label = "probe_batch";
  batch.tasks.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    batch.tasks.push_back([&run_one, i](size_t) {
      run_one(i);
      return Status::OK();
    });
  }
  std::vector<exec::PipelineTaskSet> dag;
  dag.push_back(std::move(batch));
  // The returned status is always OK by construction (probe tasks swallow
  // their own errors); discard it rather than plumb an impossible failure.
  Status probe_status = exec::PipelineScheduler::Shared().RunDag(
      std::move(dag), /*guard=*/nullptr, /*trace=*/nullptr,
      /*started=*/nullptr, dag_opts);
  (void)probe_status;
  return nonempty;
}

/// Collects distinct literal values appearing in comparison atoms anywhere
/// in the plan (candidates for $$ instantiation, Section 6).
void CollectPlanLiterals(const PlanPtr& plan, std::vector<Value>* out) {
  if (plan == nullptr || out->size() >= kMaxQueryLiterals) return;
  auto add = [out](const Value& v) {
    if (out->size() >= kMaxQueryLiterals) return;
    for (const Value& seen : *out) {
      if (seen == v) return;
    }
    out->push_back(v);
  };
  auto scan_scalar = [&add](const ScalarPtr& s) {
    std::optional<optimizer::Atom> atom = optimizer::ExtractAtom(s);
    if (!atom.has_value()) return;
    if (atom->op == optimizer::Atom::Op::kIn) {
      for (const Value& v : atom->in_values) add(v);
    } else {
      add(atom->literal);
    }
  };
  for (const ScalarPtr& p : plan->predicates) scan_scalar(p);
  for (const PlanPtr& c : plan->children) CollectPlanLiterals(c, out);
}

}  // namespace

ValidityChecker::ValidityChecker(const catalog::Catalog& catalog,
                                 const storage::DatabaseState* state,
                                 ValidityOptions options)
    : catalog_(catalog), state_(state), options_(std::move(options)) {
  SetupExpandOptions();
}

void ValidityChecker::SetupExpandOptions() {
  const catalog::Catalog* catalog = &catalog_;
  options_.expand.table_pk_slots =
      [catalog](const std::string& table) -> std::vector<int> {
    const catalog::TableSchema* schema = catalog->GetTable(table);
    if (schema == nullptr) return {};
    std::vector<int> out;
    for (size_t idx : schema->primary_key()) {
      out.push_back(static_cast<int>(idx));
    }
    return out;
  };
}

namespace {

// One-line rendering of a probe batch for the audit trace, capped so a
// pathological plan cannot bloat the trail.
std::string ProbeBatchSql(const std::vector<PlanPtr>& plans) {
  constexpr size_t kCap = 512;
  std::string out;
  for (const PlanPtr& plan : plans) {
    if (!out.empty()) out += "; ";
    std::string one = algebra::PlanToString(plan, 0);
    for (char& c : one) {
      if (c == '\n') c = ' ';
    }
    while (!one.empty() && one.back() == ' ') one.pop_back();
    out += one;
    if (out.size() > kCap) {
      out.resize(kCap);
      out += "...";
      break;
    }
  }
  return out;
}

}  // namespace

std::vector<char> ValidityChecker::RunProbeBatch(
    const std::vector<PlanPtr>& plans) {
  if (plans.empty()) return {};
  // Once a budget failure is recorded, every later batch answers all-empty
  // without touching the database; Check() surfaces probe_status_ at the
  // end of the round.
  if (!probe_status_.ok()) return std::vector<char>(plans.size(), 0);
  if (options_.max_total_probes > 0 &&
      c3_probes_ + plans.size() > options_.max_total_probes) {
    probe_status_ = Status::ResourceExhausted(
        "validity test exceeded its probe budget of " +
        std::to_string(options_.max_total_probes) + " database probes (" +
        std::to_string(c3_probes_ + plans.size()) + " needed)");
    if (span_ctx_ != nullptr && span_ctx_->active()) {
      common::RecordInstantSpan(span_ctx_, "validity.probe_refused",
                                probe_status_.message());
    }
    if (trace_ != nullptr) {
      ValidityTraceEvent e;
      e.kind = ValidityTraceEvent::Kind::kProbeBatch;
      e.probes = plans.size();
      e.detail = "refused: " + std::string(probe_status_.message());
      trace_->Add(std::move(e));
    }
    return std::vector<char>(plans.size(), 0);
  }
  c3_probes_ += plans.size();
  common::ScopedSpan probe_span(span_ctx_, "validity.probe_batch");
  std::vector<uint64_t> guard_rows;
  std::vector<char> nonempty =
      RunNonEmptinessProbes(plans, *state_, options_.probe_parallelism,
                            options_.probe_limits, check_guard_.get(),
                            dag_opts_, &guard_rows);
  if (probe_span.active()) {
    size_t hits = 0;
    for (char hit : nonempty) hits += hit ? 1 : 0;
    probe_span.set_detail("probes=" + std::to_string(plans.size()) +
                          " nonempty=" + std::to_string(hits));
  }
  if (trace_ != nullptr) {
    ValidityTraceEvent e;
    e.kind = ValidityTraceEvent::Kind::kProbeBatch;
    e.probes = plans.size();
    for (char hit : nonempty) e.probe_rows += hit ? 1 : 0;
    for (uint64_t rows : guard_rows) e.guard_rows += rows;
    e.probe_sql = ProbeBatchSql(plans);
    e.probe_plans = plans;
    trace_->Add(std::move(e));
  }
  return nonempty;
}

void ValidityChecker::TraceRule(const std::string& why) {
  size_t space = why.find(' ');
  std::string rule = space == std::string::npos ? why : why.substr(0, space);
  if (span_ctx_ != nullptr && span_ctx_->active()) {
    common::RecordInstantSpan(span_ctx_, "rule." + rule, why);
  }
  if (trace_ == nullptr) return;
  ValidityTraceEvent e;
  e.kind = ValidityTraceEvent::Kind::kRuleFired;
  e.rule = std::move(rule);
  e.detail = why;
  trace_->Add(std::move(e));
}

void ValidityChecker::MarkU(GroupId g, const std::string& why) {
  g = memo_.Find(g);
  if (!memo_.IsValidU(g)) {
    memo_.MarkValidU(g);
    justification_.emplace(g, why);
    TraceRule(why);
  }
}

void ValidityChecker::MarkC(GroupId g, const std::string& why) {
  g = memo_.Find(g);
  if (!memo_.IsValidC(g)) {
    memo_.MarkValidC(g);
    justification_.emplace(g, why);
    TraceRule(why);
  }
}

void ValidityChecker::PropagateValidity(bool* changed_any) {
  // Bottom-up marking (Section 5.6.2): an operation node is valid if all
  // its children equivalence nodes are valid (a Get is never valid by
  // itself; a Values node has no relations and is vacuously valid); an
  // equivalence node is valid if any of its operation nodes is.
  bool changed = true;
  while (changed) {
    changed = false;
    for (ExprId eid = 0; eid < static_cast<ExprId>(memo_.num_exprs()); ++eid) {
      const MemoExpr& e = memo_.expr(eid);
      if (e.dead || e.kind == PlanKind::kGet) continue;
      GroupId g = memo_.Find(e.group);
      if (!memo_.IsValidU(g)) {
        bool all_u = std::all_of(
            e.children.begin(), e.children.end(),
            [this](GroupId c) { return memo_.IsValidU(c); });
        if (all_u) {
          MarkU(g, "U2");
          witness_expr_.emplace(g, eid);
          changed = true;
          if (changed_any != nullptr) *changed_any = true;
        }
      }
      if (!memo_.IsValidC(g)) {
        bool all_c = std::all_of(
            e.children.begin(), e.children.end(),
            [this](GroupId c) { return memo_.IsValidC(c); });
        if (all_c) {
          MarkC(g, "C2");
          changed = true;
          if (changed_any != nullptr) *changed_any = true;
        }
      }
    }
  }
}

std::vector<ValidityChecker::JoinFacet> ValidityChecker::JoinFacetsOf(
    GroupId g) const {
  std::vector<JoinFacet> out;
  for (ExprId eid : memo_.GroupExprs(g)) {
    const MemoExpr& e = memo_.expr(eid);
    if (e.kind == PlanKind::kJoin) {
      JoinFacet facet;
      facet.join_expr = eid;
      size_t arity = memo_.group(g).arity;
      for (size_t i = 0; i < arity; ++i) {
        facet.proj.push_back(MakeColumn(static_cast<int>(i)));
      }
      out.push_back(std::move(facet));
    } else if (e.kind == PlanKind::kProject) {
      for (ExprId fid : memo_.GroupExprs(e.children[0])) {
        const MemoExpr& f = memo_.expr(fid);
        if (f.kind != PlanKind::kJoin) continue;
        JoinFacet facet;
        facet.join_expr = fid;
        facet.proj = e.exprs;
        out.push_back(std::move(facet));
      }
    }
  }
  return out;
}

std::optional<std::vector<ValidityChecker::EquiPair>>
ValidityChecker::PureEquiPairs(const MemoExpr& join) const {
  if (join.predicates.empty()) return std::nullopt;
  int la = static_cast<int>(memo_.group(join.children[0]).arity);
  std::vector<EquiPair> pairs;
  for (const ScalarPtr& p : join.predicates) {
    if (p->kind != ScalarKind::kBinary || p->bin_op != sql::BinOp::kEq ||
        p->left->kind != ScalarKind::kColumn ||
        p->right->kind != ScalarKind::kColumn) {
      return std::nullopt;
    }
    int a = p->left->slot, b = p->right->slot;
    if (a < la && b >= la) {
      pairs.push_back({a, b - la});
    } else if (b < la && a >= la) {
      pairs.push_back({b, a - la});
    } else {
      return std::nullopt;
    }
  }
  return pairs;
}

std::optional<ValidityChecker::Origin> ValidityChecker::SlotOrigin(
    GroupId g, int slot, int depth) const {
  if (depth > kMaxOriginDepth) return std::nullopt;
  g = memo_.Find(g);
  for (ExprId eid : memo_.GroupExprs(g)) {
    const MemoExpr& e = memo_.expr(eid);
    switch (e.kind) {
      case PlanKind::kGet:
        return Origin{e.table, slot};
      case PlanKind::kSelect:
      case PlanKind::kDistinct:
      case PlanKind::kSort:
      case PlanKind::kLimit: {
        auto o = SlotOrigin(e.children[0], slot, depth + 1);
        if (o.has_value()) return o;
        break;
      }
      case PlanKind::kProject: {
        if (slot < 0 || static_cast<size_t>(slot) >= e.exprs.size()) break;
        const ScalarPtr& x = e.exprs[slot];
        if (x->kind != ScalarKind::kColumn) break;
        auto o = SlotOrigin(e.children[0], x->slot, depth + 1);
        if (o.has_value()) return o;
        break;
      }
      case PlanKind::kJoin: {
        int la = static_cast<int>(memo_.group(e.children[0]).arity);
        auto o = slot < la ? SlotOrigin(e.children[0], slot, depth + 1)
                           : SlotOrigin(e.children[1], slot - la, depth + 1);
        if (o.has_value()) return o;
        break;
      }
      case PlanKind::kAggregate: {
        if (slot < 0 || static_cast<size_t>(slot) >= e.group_by.size()) break;
        const ScalarPtr& x = e.group_by[slot];
        if (x->kind != ScalarKind::kColumn) break;
        auto o = SlotOrigin(e.children[0], x->slot, depth + 1);
        if (o.has_value()) return o;
        break;
      }
      default:
        break;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<ScalarPtr>> ValidityChecker::SingleTableFilters(
    GroupId g, std::string* table) const {
  g = memo_.Find(g);
  std::vector<ScalarPtr> filters;
  for (int depth = 0; depth < kMaxOriginDepth; ++depth) {
    bool advanced = false;
    for (ExprId eid : memo_.GroupExprs(g)) {
      const MemoExpr& e = memo_.expr(eid);
      if (e.kind == PlanKind::kGet) {
        *table = e.table;
        return filters;
      }
      if (e.kind == PlanKind::kSelect) {
        filters.insert(filters.end(), e.predicates.begin(), e.predicates.end());
        g = memo_.Find(e.children[0]);
        advanced = true;
        break;
      }
    }
    if (!advanced) return std::nullopt;
  }
  return std::nullopt;
}

bool ValidityChecker::ApplyU3Rules() {
  bool changed = false;
  size_t group_snapshot = memo_.num_groups();
  for (GroupId g = 0; g < static_cast<GroupId>(group_snapshot); ++g) {
    if (memo_.Find(g) != g || !memo_.IsValidU(g)) continue;
    for (const JoinFacet& facet : JoinFacetsOf(g)) {
      const MemoExpr join = memo_.expr(facet.join_expr);  // copy
      auto pairs = PureEquiPairs(join);
      if (!pairs.has_value() || pairs->empty()) continue;
      GroupId core = memo_.Find(join.children[0]);
      GroupId rem = memo_.Find(join.children[1]);
      int la = static_cast<int>(memo_.group(core).arity);

      // The remainder must be a whole base table (the paper's "most natural
      // case": the remainder is a single relation).
      std::string rem_table;
      bool rem_is_table = false;
      for (ExprId fid : memo_.GroupExprs(rem)) {
        if (memo_.expr(fid).kind == PlanKind::kGet) {
          rem_table = memo_.expr(fid).table;
          rem_is_table = true;
          break;
        }
      }
      if (!rem_is_table) continue;
      const catalog::TableSchema* rem_schema = catalog_.GetTable(rem_table);
      if (rem_schema == nullptr) continue;

      // Provenance of the core-side join columns.
      std::string core_table;
      std::vector<std::pair<std::string, std::string>> join_col_names;
      bool origins_ok = true;
      for (const EquiPair& pair : *pairs) {
        auto origin = SlotOrigin(core, pair.core_slot);
        if (!origin.has_value() ||
            (!core_table.empty() && core_table != origin->table)) {
          origins_ok = false;
          break;
        }
        core_table = origin->table;
        const catalog::TableSchema* cs = catalog_.GetTable(core_table);
        if (cs == nullptr ||
            static_cast<size_t>(origin->column) >= cs->num_columns() ||
            static_cast<size_t>(pair.rem_slot) >= rem_schema->num_columns()) {
          origins_ok = false;
          break;
        }
        join_col_names.emplace_back(
            cs->column(origin->column).name,
            rem_schema->column(pair.rem_slot).name);
      }
      if (!origins_ok || core_table.empty()) continue;

      // Find visible inclusion dependencies whose column pairs cover the
      // join predicate.
      std::vector<const catalog::InclusionDependency*> deps;
      for (const catalog::InclusionDependency& candidate :
           catalog_.constraints()) {
        if (!candidate.visible_to_users || candidate.src_table != core_table ||
            candidate.dst_table != rem_table) {
          continue;
        }
        bool covers = true;
        for (const auto& [c_col, r_col] : join_col_names) {
          bool found = false;
          for (size_t i = 0; i < candidate.src_columns.size(); ++i) {
            if (candidate.src_columns[i] == c_col &&
                candidate.dst_columns[i] == r_col) {
              found = true;
              break;
            }
          }
          if (!found) {
            covers = false;
            break;
          }
        }
        if (covers) deps.push_back(&candidate);
      }
      if (deps.empty()) continue;

      // Candidate cores: the core group itself, plus every selection over
      // it (σ_P(q) is valid by U2, and pushing the selection into the core
      // keeps the join-partner guarantee when the filters still imply the
      // dependency's predicate — Example 5.3's full-time students).
      struct CoreCandidate {
        GroupId group;
        std::vector<ScalarPtr> filters;  // over the core's slots
      };
      std::string chain_table;
      std::vector<ScalarPtr> base_filters;
      bool single_table_core = false;
      if (auto f = SingleTableFilters(core, &chain_table);
          f.has_value() && chain_table == core_table) {
        base_filters = *f;
        single_table_core = true;
      }
      std::vector<CoreCandidate> candidates;
      candidates.push_back({core, base_filters});
      for (ExprId sid : memo_.ParentsOf(core)) {
        const MemoExpr& s = memo_.expr(sid);
        if (s.kind != PlanKind::kSelect || memo_.Find(s.children[0]) != core) {
          continue;
        }
        std::vector<ScalarPtr> filters = base_filters;
        filters.insert(filters.end(), s.predicates.begin(), s.predicates.end());
        candidates.push_back({memo_.Find(s.group), std::move(filters)});
      }

      for (const catalog::InclusionDependency* dep : deps) {
        std::vector<ScalarPtr> dep_conjuncts;
        if (dep->src_predicate != nullptr) {
          // Conditional dependency: only single-table cores, whose filters
          // can be compared against the dependency predicate.
          if (!single_table_core) continue;
          const catalog::TableSchema* cs = catalog_.GetTable(core_table);
          Result<ScalarPtr> bound =
              algebra::Binder::BindOverTable(dep->src_predicate, *cs);
          if (!bound.ok()) continue;
          dep_conjuncts = algebra::SplitConjuncts(bound.value());
        }

        // A_c: projection entries entirely on the core side.
        std::vector<ScalarPtr> a_core;
        for (const ScalarPtr& x : facet.proj) {
          std::set<int> slots;
          algebra::CollectSlots(x, &slots);
          if (!slots.empty() && *slots.rbegin() < la) a_core.push_back(x);
        }
        if (a_core.empty()) continue;

        // Do the remainder's join columns survive the projection (needed
        // for U3c's multiplicity reconstruction)?
        bool rem_cols_projected = true;
        for (const EquiPair& pair : *pairs) {
          bool present = std::any_of(
              facet.proj.begin(), facet.proj.end(), [&](const ScalarPtr& x) {
                return x->kind == ScalarKind::kColumn &&
                       x->slot == la + pair.rem_slot;
              });
          if (!present) {
            rem_cols_projected = false;
            break;
          }
        }

        for (const CoreCandidate& cand : candidates) {
          if (dep->src_predicate != nullptr &&
              !ImpliesAll(cand.filters, dep_conjuncts)) {
            continue;
          }
          // U3a/U3b: DISTINCT projection of the (filtered) core is valid.
          GroupId proj_g = memo_.InsertExpr(ProjectExpr(a_core, cand.group));
          GroupId dist_g = memo_.InsertExpr(DistinctExpr(proj_g));
          if (!memo_.IsValidU(dist_g)) {
            MarkU(dist_g, "U3a/U3b via constraint '" + dep->name + "'");
            changed = true;
          }
          // Project factoring: a query projection keeping a subset of A_c
          // factors through π_{A_c}: π_B(core) = π_{B'}(π_{A_c}(core)).
          // This connects narrower query projections (Example 5.3's
          // "select distinct name") to the derived valid node.
          for (ExprId pid : memo_.ParentsOf(cand.group)) {
            const MemoExpr p = memo_.expr(pid);  // copy
            if (p.kind != PlanKind::kProject ||
                memo_.Find(p.children[0]) != memo_.Find(cand.group)) {
              continue;
            }
            std::vector<ScalarPtr> remapped;
            bool all_in = true;
            for (const ScalarPtr& b : p.exprs) {
              int pos = -1;
              for (size_t i = 0; i < a_core.size(); ++i) {
                if (algebra::ScalarEquals(b, a_core[i])) {
                  pos = static_cast<int>(i);
                  break;
                }
              }
              if (pos < 0) {
                all_in = false;
                break;
              }
              remapped.push_back(MakeColumn(pos));
            }
            if (!all_in) continue;
            GroupId pg = memo_.Find(p.group);
            memo_.InsertExpr(ProjectExpr(std::move(remapped), proj_g), pg);
            changed = true;
          }
          // U3c: multiplicities recoverable when the remainder's join
          // columns are themselves unconditionally visible (q_rj valid).
          if (rem_cols_projected && !memo_.IsValidU(proj_g)) {
            std::vector<ScalarPtr> rj;
            for (const EquiPair& pair : *pairs) {
              rj.push_back(MakeColumn(pair.rem_slot));
            }
            GroupId qrj = memo_.InsertExpr(ProjectExpr(std::move(rj), rem));
            PropagateValidity(nullptr);
            if (memo_.IsValidU(qrj)) {
              MarkU(proj_g, "U3c via constraint '" + dep->name + "'");
              changed = true;
            }
          }
        }
      }
    }
  }
  memo_.Canonicalize();
  return changed;
}

bool ValidityChecker::ApplyCAggRules() {
  if (state_ == nullptr) return false;
  bool changed = false;

  // Returns the number of group-by keys if `x` is a keyed aggregate group.
  auto aggregate_keys = [this](GroupId x) -> size_t {
    for (ExprId aid : memo_.GroupExprs(x)) {
      if (memo_.expr(aid).kind == PlanKind::kAggregate) {
        return memo_.expr(aid).group_by.size();
      }
    }
    return 0;
  };

  // Probes are collected during the walk and executed as one batch at the
  // end (concurrently when configured) — the memo is not thread-safe, so
  // marking is also deferred until after the batch.
  struct AggProbe {
    PlanPtr plan;        // σ_{P1}(v), conditionally valid
    GroupId target = -1; // query selection group to promote when non-empty
  };
  std::vector<AggProbe> pending;

  // Shared tail: given that the restriction of the keyed aggregate `x` is
  // visible as the valid group `v` (same column layout as the query's
  // selection input `z`), and `key_slots` are z-slots carrying the whole
  // key of x, promote query selections σ_{P1}(z) that pin every key slot
  // whenever the probe σ_{P1}(v) is visibly non-empty.
  auto promote = [this, &pending](GroupId z, GroupId v,
                                  const std::vector<int>& key_slots) {
    for (ExprId sid : memo_.ParentsOf(z)) {
      const MemoExpr s = memo_.expr(sid);  // copy
      if (s.kind != PlanKind::kSelect || memo_.Find(s.children[0]) != z) {
        continue;
      }
      GroupId sg = memo_.Find(s.group);
      if (memo_.IsValidC(sg)) continue;
      bool all_pinned = true;
      for (int key_slot : key_slots) {
        bool pinned = false;
        for (const ScalarPtr& p : s.predicates) {
          std::optional<optimizer::Atom> atom = optimizer::ExtractAtom(p);
          if (atom.has_value() && atom->op == optimizer::Atom::Op::kEq &&
              atom->expr->kind == ScalarKind::kColumn &&
              atom->expr->slot == key_slot) {
            pinned = true;
            break;
          }
        }
        if (!pinned) {
          all_pinned = false;
          break;
        }
      }
      if (!all_pinned) continue;
      // Probe σ_{P1}(v): conditionally valid by C2; visibly non-empty?
      GroupId probe = memo_.InsertExpr(SelectExpr(s.predicates, v));
      PropagateValidity(nullptr);
      if (!memo_.IsValidC(probe)) continue;
      Result<PlanPtr> plan = memo_.AnyPlan(probe);
      if (!plan.ok()) continue;
      pending.push_back({plan.value(), sg});
    }
  };

  size_t group_snapshot = memo_.num_groups();
  for (GroupId v = 0; v < static_cast<GroupId>(group_snapshot); ++v) {
    if (memo_.Find(v) != v || !memo_.IsValidC(v)) continue;
    for (ExprId eid : memo_.GroupExprs(v)) {
      const MemoExpr e = memo_.expr(eid);  // copy
      if (e.kind == PlanKind::kSelect) {
        // v = σ_{P2}(x) with x a keyed aggregate; z = x directly.
        GroupId x = memo_.Find(e.children[0]);
        size_t num_keys = aggregate_keys(x);
        if (num_keys == 0) continue;
        std::vector<int> key_slots;
        for (size_t k = 0; k < num_keys; ++k) {
          key_slots.push_back(static_cast<int>(k));
        }
        promote(x, v, key_slots);
      } else if (e.kind == PlanKind::kProject) {
        // v = π_A(σ_{P2}(x)): the query sees π_A(x) (some group z holding
        // Project(A, x)); the keys of x must be exposed through A.
        GroupId wg = memo_.Find(e.children[0]);
        for (ExprId wid : memo_.GroupExprs(wg)) {
          const MemoExpr w = memo_.expr(wid);
          if (w.kind != PlanKind::kSelect) continue;
          GroupId x = memo_.Find(w.children[0]);
          size_t num_keys = aggregate_keys(x);
          if (num_keys == 0) continue;
          std::vector<int> key_slots;
          bool keys_exposed = true;
          for (size_t k = 0; k < num_keys; ++k) {
            int found = -1;
            for (size_t j = 0; j < e.exprs.size(); ++j) {
              if (e.exprs[j]->kind == ScalarKind::kColumn &&
                  e.exprs[j]->slot == static_cast<int>(k)) {
                found = static_cast<int>(j);
                break;
              }
            }
            if (found < 0) {
              keys_exposed = false;
              break;
            }
            key_slots.push_back(found);
          }
          if (!keys_exposed) continue;
          // Find query-side z groups computing π_A(x) with the same list.
          for (ExprId pid : memo_.ParentsOf(x)) {
            const MemoExpr p = memo_.expr(pid);
            if (p.kind != PlanKind::kProject ||
                memo_.Find(p.children[0]) != x ||
                p.exprs.size() != e.exprs.size()) {
              continue;
            }
            bool same = true;
            for (size_t j = 0; j < p.exprs.size(); ++j) {
              if (!algebra::ScalarEquals(p.exprs[j], e.exprs[j])) {
                same = false;
                break;
              }
            }
            if (!same) continue;
            promote(memo_.Find(p.group), v, key_slots);
          }
        }
      }
    }
  }

  // Batched probe + serial marking.
  std::vector<PlanPtr> plans;
  plans.reserve(pending.size());
  for (const AggProbe& p : pending) plans.push_back(p.plan);
  std::vector<char> nonempty = RunProbeBatch(plans);
  for (size_t i = 0; i < pending.size(); ++i) {
    if (!nonempty[i]) continue;
    GroupId target = memo_.Find(pending[i].target);
    if (memo_.IsValidC(target)) continue;
    MarkC(target, "C3 over keyed aggregate (visibly non-empty key)");
    changed = true;
  }
  memo_.Canonicalize();
  return changed;
}

bool ValidityChecker::ApplyJoinIntroduction() {
  constexpr size_t kMaxIntroducedJoins = 16;
  bool changed = false;
  // Targets: subexpressions under a Distinct (directly or through a
  // projection) — exactly the shape U3a can validate.
  std::set<GroupId> targets;
  size_t group_snapshot = memo_.num_groups();
  for (GroupId g = 0; g < static_cast<GroupId>(group_snapshot); ++g) {
    if (memo_.Find(g) != g) continue;
    for (ExprId eid : memo_.GroupExprs(g)) {
      const MemoExpr& e = memo_.expr(eid);
      if (e.kind != PlanKind::kDistinct) continue;
      GroupId qp = memo_.Find(e.children[0]);
      targets.insert(qp);
      for (ExprId pid : memo_.GroupExprs(qp)) {
        const MemoExpr& p = memo_.expr(pid);
        if (p.kind == PlanKind::kProject) {
          targets.insert(memo_.Find(p.children[0]));
        }
      }
    }
  }
  for (GroupId xg : targets) {
    if (joins_introduced_ >= kMaxIntroducedJoins) break;
    if (memo_.IsValidU(xg)) continue;
    size_t arity = memo_.group(xg).arity;
    for (const catalog::InclusionDependency& dep : catalog_.constraints()) {
      if (!dep.visible_to_users) continue;
      if (dep.src_predicate != nullptr) continue;  // keep it simple and sound
      const catalog::TableSchema* dst = catalog_.GetTable(dep.dst_table);
      if (dst == nullptr) continue;
      // Find one slot of xg per dependency source column.
      std::vector<int> src_slots;
      bool all_found = true;
      for (const std::string& col : dep.src_columns) {
        int found = -1;
        for (size_t slot = 0; slot < arity && found < 0; ++slot) {
          auto origin = SlotOrigin(xg, static_cast<int>(slot));
          if (origin.has_value() && origin->table == dep.src_table) {
            const catalog::TableSchema* src = catalog_.GetTable(dep.src_table);
            if (src != nullptr &&
                static_cast<size_t>(origin->column) < src->num_columns() &&
                src->column(origin->column).name == col) {
              found = static_cast<int>(slot);
            }
          }
        }
        if (found < 0) {
          all_found = false;
          break;
        }
        src_slots.push_back(found);
      }
      if (!all_found) continue;
      // Introduce Join(xg, Get(dst), xg.k_i = dst.col_i).
      std::vector<std::string> dst_cols;
      for (const catalog::Column& c : dst->columns()) dst_cols.push_back(c.name);
      GroupId rem = memo_.InsertPlan(algebra::MakeGet(dep.dst_table, dst_cols));
      std::vector<ScalarPtr> preds;
      for (size_t i = 0; i < dep.src_columns.size(); ++i) {
        std::optional<size_t> dst_idx = dst->FindColumn(dep.dst_columns[i]);
        if (!dst_idx.has_value()) break;
        preds.push_back(MakeBinaryScalar(
            sql::BinOp::kEq, MakeColumn(src_slots[i]),
            MakeColumn(static_cast<int>(arity + *dst_idx))));
      }
      if (preds.size() != dep.src_columns.size()) continue;
      MemoExpr join;
      join.kind = PlanKind::kJoin;
      join.predicates = NormalizePredicates(std::move(preds));
      join.children = {xg, rem};
      memo_.InsertExpr(std::move(join));
      ++joins_introduced_;
      changed = true;
      if (joins_introduced_ >= kMaxIntroducedJoins) break;
    }
  }
  memo_.Canonicalize();
  return changed;
}

bool ValidityChecker::ApplyC3Rules() {
  if (state_ == nullptr) return false;
  bool changed = false;

  // Phase 1 (serial): walk the memo and collect candidates. All memo
  // mutation — inserting the instantiated remainders v_r — happens here,
  // because the memo is not thread-safe. The q' insertion and marking is
  // deferred to phase 3 so the probe batch in between touches nothing but
  // the database state. A marking that would have enabled further
  // candidates within this round is picked up by the next fixpoint round.
  struct C3Candidate {
    PlanPtr probe_plan;             // v_r, conditionally valid
    GroupId core = -1;              // join core group
    std::vector<ScalarPtr> a_core;  // core-side projection at the valid node
    std::vector<ScalarPtr> p_ic;    // selection pinning the core join cols
  };
  std::vector<C3Candidate> candidates;

  size_t group_snapshot = memo_.num_groups();
  for (GroupId g = 0; g < static_cast<GroupId>(group_snapshot); ++g) {
    if (memo_.Find(g) != g || !memo_.IsValidC(g)) continue;
    for (const JoinFacet& facet : JoinFacetsOf(g)) {
      const MemoExpr join = memo_.expr(facet.join_expr);  // copy
      auto pairs = PureEquiPairs(join);
      if (!pairs.has_value() || pairs->empty()) continue;
      GroupId core = memo_.Find(join.children[0]);
      GroupId rem = memo_.Find(join.children[1]);
      int la = static_cast<int>(memo_.group(core).arity);

      // Condition 1(d): every core-side join column is visible at the
      // valid node.
      bool core_cols_projected = true;
      for (const EquiPair& pair : *pairs) {
        bool present = std::any_of(
            facet.proj.begin(), facet.proj.end(), [&](const ScalarPtr& x) {
              return x->kind == ScalarKind::kColumn && x->slot == pair.core_slot;
            });
        if (!present) {
          core_cols_projected = false;
          break;
        }
      }
      if (!core_cols_projected) continue;

      std::vector<ScalarPtr> a_core;
      for (const ScalarPtr& x : facet.proj) {
        std::set<int> slots;
        algebra::CollectSlots(x, &slots);
        if (!slots.empty() && *slots.rbegin() < la) a_core.push_back(x);
      }
      if (a_core.empty()) continue;

      // Candidate instantiations: selections over the core that pin every
      // core-side join column to a constant (condition 2 / Example 5.5).
      // Snapshot the parent list: the loop body inserts v_r expressions.
      const auto core_parents = memo_.ParentsOf(core);
      for (ExprId sid : core_parents) {
        const MemoExpr sel = memo_.expr(sid);  // copy
        if (sel.kind != PlanKind::kSelect || memo_.Find(sel.children[0]) != core)
          continue;
        std::vector<Value> pin_values;
        bool all_pinned = true;
        for (const EquiPair& pair : *pairs) {
          bool pinned = false;
          for (const ScalarPtr& p : sel.predicates) {
            std::optional<optimizer::Atom> atom = optimizer::ExtractAtom(p);
            if (atom.has_value() && atom->op == optimizer::Atom::Op::kEq &&
                atom->expr->kind == ScalarKind::kColumn &&
                atom->expr->slot == pair.core_slot) {
              pin_values.push_back(atom->literal);
              pinned = true;
              break;
            }
          }
          if (!pinned) {
            all_pinned = false;
            break;
          }
        }
        if (!all_pinned) continue;

        // v_r: the instantiated remainder must be conditionally valid and
        // visibly non-empty in the current state (condition 3).
        std::vector<ScalarPtr> p_ir;
        for (size_t i = 0; i < pairs->size(); ++i) {
          p_ir.push_back(MakeBinaryScalar(sql::BinOp::kEq,
                                          MakeColumn((*pairs)[i].rem_slot),
                                          MakeLiteralScalar(pin_values[i])));
        }
        GroupId vr = memo_.InsertExpr(SelectExpr(std::move(p_ir), rem));
        PropagateValidity(nullptr);
        if (!memo_.IsValidC(vr)) continue;

        Result<PlanPtr> vr_plan = memo_.AnyPlan(vr);
        if (!vr_plan.ok()) continue;

        // q': selection of the pinned core, projected to A_c. The join is
        // an equi-join, so P_ic determines P_ir and rule C3b lets us keep
        // multiplicities (no DISTINCT needed). Built (not yet inserted)
        // here; inserted and marked in phase 3 if the probe succeeds.
        std::vector<ScalarPtr> p_ic;
        for (size_t i = 0; i < pairs->size(); ++i) {
          p_ic.push_back(MakeBinaryScalar(sql::BinOp::kEq,
                                          MakeColumn((*pairs)[i].core_slot),
                                          MakeLiteralScalar(pin_values[i])));
        }
        candidates.push_back(
            {vr_plan.value(), core, a_core, std::move(p_ic)});
      }
    }
  }

  // Phase 2: probe every candidate remainder for visible non-emptiness,
  // concurrently when options_.probe_parallelism allows.
  std::vector<PlanPtr> plans;
  plans.reserve(candidates.size());
  for (const C3Candidate& c : candidates) plans.push_back(c.probe_plan);
  std::vector<char> nonempty = RunProbeBatch(plans);

  // Phase 3 (serial): admit q' for every non-empty remainder.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!nonempty[i]) continue;
    C3Candidate& c = candidates[i];
    GroupId qsel =
        memo_.InsertExpr(SelectExpr(std::move(c.p_ic), memo_.Find(c.core)));
    GroupId qproj = memo_.InsertExpr(ProjectExpr(c.a_core, qsel));
    if (!memo_.IsValidC(qproj)) {
      MarkC(qproj, "C3a/C3b (visibly non-empty remainder)");
      changed = true;
    }
  }
  memo_.Canonicalize();
  return changed;
}

Status ValidityChecker::InsertAccessPatternInstantiations(
    const InstantiatedView& view, const PlanPtr& query) {
  std::vector<Value> literals;
  CollectPlanLiterals(query, &literals);
  if (literals.empty()) return Status::OK();

  // Enumerate assignments of literals to the view's $$ parameters
  // ("considering the set of all instantiated versions", Section 6),
  // bounded by max_access_instantiations.
  size_t k = view.access_parameters.size();
  std::vector<size_t> idx(k, 0);
  size_t tried = 0;
  while (tried < options_.max_access_instantiations) {
    std::map<std::string, Value> bindings;
    for (size_t i = 0; i < k; ++i) {
      bindings[view.access_parameters[i]] = literals[idx[i]];
    }
    PlanPtr bound =
        algebra::NormalizePlan(algebra::BindPlanParams(view.plan, bindings));
    if (!algebra::PlanHasAccessParam(bound)) {
      GroupId g = memo_.InsertPlan(bound);
      MarkU(g, "U1 ($$-instantiation of view '" + view.name + "')");
    }
    ++tried;
    // Advance the odometer.
    size_t pos = 0;
    while (pos < k) {
      if (++idx[pos] < literals.size()) break;
      idx[pos] = 0;
      ++pos;
    }
    if (pos == k) break;
  }
  return Status::OK();
}

bool ValidityChecker::ApplyDependentJoinRule(
    const std::vector<InstantiatedView>& views) {
  // Identify usable access-pattern view templates:
  //   Select(col = $$p, Get(T))  with no other predicates mentioning $$
  // (and no projection, so the whole tuple of T is retrievable).
  struct Template {
    std::string view_name;
    std::string table;
    int binding_column = 0;
  };
  std::vector<Template> templates;
  for (const InstantiatedView& v : views) {
    if (v.access_parameters.size() != 1) continue;
    const PlanPtr& p = v.plan;
    if (p->kind != PlanKind::kSelect || p->predicates.size() != 1 ||
        p->children[0]->kind != PlanKind::kGet) {
      continue;
    }
    const ScalarPtr& pred = p->predicates[0];
    if (pred->kind != ScalarKind::kBinary || pred->bin_op != sql::BinOp::kEq) {
      continue;
    }
    const ScalarPtr* col = nullptr;
    if (pred->left->kind == ScalarKind::kColumn &&
        pred->right->kind == ScalarKind::kAccessParam) {
      col = &pred->left;
    } else if (pred->right->kind == ScalarKind::kColumn &&
               pred->left->kind == ScalarKind::kAccessParam) {
      col = &pred->right;
    }
    if (col == nullptr) continue;
    templates.push_back({v.name, p->children[0]->table, (*col)->slot});
  }
  if (templates.empty()) return false;

  bool changed = false;
  for (ExprId eid = 0; eid < static_cast<ExprId>(memo_.num_exprs()); ++eid) {
    const MemoExpr e = memo_.expr(eid);  // copy
    if (e.dead || e.kind != PlanKind::kJoin) continue;
    GroupId g = memo_.Find(e.group);
    if (memo_.IsValidU(g)) continue;
    GroupId left = memo_.Find(e.children[0]);
    GroupId right = memo_.Find(e.children[1]);
    bool left_u = memo_.IsValidU(left);
    bool left_c = memo_.IsValidC(left);
    if (!left_c) continue;
    // Right side must be the whole table of some template.
    std::string rtable;
    for (ExprId fid : memo_.GroupExprs(right)) {
      if (memo_.expr(fid).kind == PlanKind::kGet) {
        rtable = memo_.expr(fid).table;
        break;
      }
    }
    if (rtable.empty()) continue;
    int la = static_cast<int>(memo_.group(left).arity);
    for (const Template& t : templates) {
      if (t.table != rtable) continue;
      // Need one equi conjunct left.x = right.binding_column.
      bool keyed = false;
      for (const ScalarPtr& p : e.predicates) {
        if (p->kind != ScalarKind::kBinary || p->bin_op != sql::BinOp::kEq)
          continue;
        const ScalarPtr &l = p->left, &r = p->right;
        auto is_bind = [&](const ScalarPtr& a, const ScalarPtr& b) {
          return a->kind == ScalarKind::kColumn && a->slot < la &&
                 b->kind == ScalarKind::kColumn &&
                 b->slot == la + t.binding_column;
        };
        if (is_bind(l, r) || is_bind(r, l)) {
          keyed = true;
          break;
        }
      }
      if (!keyed) continue;
      // The join is computable by a dependent join: step through the valid
      // left input, probing the access-pattern view per tuple (Section 6).
      if (left_u) {
        MarkU(g, "dependent join via access-pattern view '" + t.view_name + "'");
      } else {
        MarkC(g, "dependent join via access-pattern view '" + t.view_name + "'");
      }
      changed = true;
      break;
    }
  }
  return changed;
}

bool ValidityChecker::ApplyRedundantJoinDecomposition() {
  constexpr size_t kMaxApplications = 8;
  size_t applied = 0;
  bool changed = false;
  size_t group_snapshot = memo_.num_groups();
  for (GroupId q = 0; q < static_cast<GroupId>(group_snapshot); ++q) {
    if (memo_.Find(q) != q || memo_.IsValidU(q)) continue;
    if (applied >= kMaxApplications) break;
    std::vector<optimizer::ExprId> exprs = memo_.GroupExprs(q);
    for (optimizer::ExprId jid : exprs) {
      const MemoExpr j = memo_.expr(jid);  // copy
      if (j.kind != PlanKind::kJoin || j.predicates.empty()) continue;
      GroupId x = memo_.Find(j.children[0]);
      GroupId y = memo_.Find(j.children[1]);
      // Gate: the decomposition can only help when the L⋈T side is itself
      // derivable from the views; without that, the duplicated-T form can
      // never become valid and the speculation just bloats the memo.
      if (!memo_.IsValidC(x)) continue;
      int ax = static_cast<int>(memo_.group(x).arity);
      int ay = static_cast<int>(memo_.group(y).arity);
      for (optimizer::ExprId iid : memo_.GroupExprs(x)) {
        const MemoExpr inner = memo_.expr(iid);  // copy
        if (inner.kind != PlanKind::kJoin) continue;
        GroupId l = memo_.Find(inner.children[0]);
        GroupId t = memo_.Find(inner.children[1]);
        int al = static_cast<int>(memo_.group(l).arity);
        int at = static_cast<int>(memo_.group(t).arity);
        // The middle group must be a keyed single-table chain: rows that
        // agree on the key ARE the same row, which is what makes the
        // duplicated-T join collapse 1:1.
        std::string table;
        auto filters = SingleTableFilters(t, &table);
        if (!filters.has_value()) continue;
        const catalog::TableSchema* schema = catalog_.GetTable(table);
        if (schema == nullptr || !schema->has_primary_key()) continue;

        // Partition the outer predicates: conjuncts touching only T's slice
        // of x (and y) factor into the right join; conjuncts touching L are
        // admissible only when they are REDUNDANT — implied by the inner
        // join's predicates together with the T-only conjuncts (the
        // equality closure routinely materializes such derived conjuncts,
        // e.g. r.cid = c.cid from r.cid = g.cid ∧ g.cid = c.cid).
        std::vector<ScalarPtr> t_conjuncts, l_conjuncts;
        for (const ScalarPtr& p : j.predicates) {
          std::set<int> slots;
          algebra::CollectSlots(p, &slots);
          bool touches_l = std::any_of(slots.begin(), slots.end(), [&](int s) {
            return s < ax && s < al;
          });
          (touches_l ? l_conjuncts : t_conjuncts).push_back(p);
        }
        if (t_conjuncts.empty()) continue;
        if (!l_conjuncts.empty()) {
          // Known facts over the combined (l, t, y) space: the inner
          // join's predicates (already in x-space = a prefix of the
          // combined space) plus the T-only outer conjuncts. Closure makes
          // derived equalities explicit.
          std::vector<ScalarPtr> known = inner.predicates;
          known.insert(known.end(), t_conjuncts.begin(), t_conjuncts.end());
          known = NormalizePredicates(std::move(known));
          if (!ImpliesAll(known, l_conjuncts)) continue;
        }

        // right = Join(t, y, JP')   [t-local slots, then y].
        std::vector<ScalarPtr> jp_right;
        for (const ScalarPtr& p : t_conjuncts) {
          jp_right.push_back(algebra::RemapSlots(p, [&](int s) {
            return s < ax ? s - al : s - ax + at;
          }));
        }
        MemoExpr right;
        right.kind = PlanKind::kJoin;
        right.predicates = NormalizePredicates(std::move(jp_right));
        right.children = {t, y};
        GroupId right_g = memo_.InsertExpr(std::move(right));

        // combined = Join(x, right, T.key = T'.key).
        std::vector<ScalarPtr> key_preds;
        for (size_t idx : schema->primary_key()) {
          key_preds.push_back(MakeBinaryScalar(
              sql::BinOp::kEq, MakeColumn(al + static_cast<int>(idx)),
              MakeColumn(ax + static_cast<int>(idx))));
        }
        MemoExpr combined;
        combined.kind = PlanKind::kJoin;
        combined.predicates = NormalizePredicates(std::move(key_preds));
        combined.children = {x, right_g};
        GroupId comb_g = memo_.InsertExpr(std::move(combined));

        // q = π_{x cols, y cols}(combined): drop the duplicated T slice.
        // This equivalence is asserted by the engine (see header comment),
        // inserting the projection INTO the query group.
        std::vector<ScalarPtr> proj;
        for (int s = 0; s < ax; ++s) proj.push_back(MakeColumn(s));
        for (int s = 0; s < ay; ++s) proj.push_back(MakeColumn(ax + at + s));
        memo_.InsertExpr(ProjectExpr(std::move(proj), comb_g), q);
        changed = true;
        ++applied;
        if (applied >= kMaxApplications) break;
      }
      if (applied >= kMaxApplications) break;
    }
  }
  memo_.Canonicalize();
  return changed;
}

Result<PlanPtr> ValidityChecker::ExtractWitness() const {
  if (root_ < 0) {
    return Status::InvalidArgument("ExtractWitness requires a prior Check");
  }
  if (!memo_.IsValidU(memo_.Find(root_))) {
    return Status::NotImplemented(
        "witness rewritings exist only for unconditionally valid queries");
  }
  // Witness entries are keyed by the group ids current at marking time;
  // later merges may have re-rooted them, so match via Find.
  auto find_view = [this](GroupId g) -> const ViewWitness* {
    for (const auto& [key, w] : witness_view_) {
      if (memo_.Find(key) == g) return &w;
    }
    return nullptr;
  };
  auto find_expr = [this](GroupId g) -> const optimizer::ExprId* {
    for (const auto& [key, eid] : witness_expr_) {
      if (memo_.Find(key) == g) return &eid;
    }
    return nullptr;
  };

  std::set<GroupId> on_path;
  std::function<Result<PlanPtr>(GroupId)> build =
      [&](GroupId g) -> Result<PlanPtr> {
    g = memo_.Find(g);
    if (on_path.count(g) > 0) {
      return Status::InvalidArgument("cyclic witness derivation");
    }
    on_path.insert(g);
    Result<PlanPtr> out = [&]() -> Result<PlanPtr> {
      if (const ViewWitness* w = find_view(g)) {
        std::vector<std::string> cols;
        for (size_t i = 0; i < w->arity; ++i) {
          cols.push_back("col" + std::to_string(i));
        }
        return algebra::MakeGet("view:" + w->name, std::move(cols));
      }
      if (const optimizer::ExprId* eid = find_expr(g)) {
        const optimizer::MemoExpr& e = memo_.expr(*eid);
        auto p = std::make_shared<algebra::Plan>();
        p->kind = e.kind;
        for (GroupId c : e.children) {
          FGAC_ASSIGN_OR_RETURN(PlanPtr child, build(c));
          p->children.push_back(std::move(child));
        }
        p->table = e.table;
        p->get_columns = e.get_columns;
        p->rows = e.rows;
        p->values_arity = e.values_arity;
        p->predicates = e.predicates;
        p->exprs = e.exprs;
        p->group_by = e.group_by;
        p->aggs = e.aggs;
        p->sort_items = e.sort_items;
        p->limit = e.limit;
        return PlanPtr(p);
      }
      return Status::NotImplemented(
          "no constructive witness: the admission used U3/C3 derivations or "
          "access-pattern instantiations");
    }();
    on_path.erase(g);
    return out;
  };
  return build(memo_.Find(root_));
}

Result<storage::Relation> ValidityChecker::ExecuteWitness(
    const PlanPtr& witness, const std::vector<InstantiatedView>& views,
    const storage::DatabaseState& state) {
  storage::DatabaseState views_state(&state);
  for (const InstantiatedView& v : views) {
    if (v.is_access_pattern()) continue;
    FGAC_ASSIGN_OR_RETURN(storage::Relation rel,
                          exec::ExecutePlan(v.plan, state));
    FGAC_RETURN_NOT_OK(
        views_state.CreateTable("view:" + v.name, rel.num_columns()));
    views_state.GetMutableTable("view:" + v.name)
        ->ReplaceAllRows(std::move(rel.mutable_rows()));
  }
  // The witness may reference only the pseudo-tables, but evaluating over
  // them layered on `state` is equivalent and simpler.
  return exec::ExecutePlan(witness, views_state);
}

Result<ValidityReport> ValidityChecker::Check(
    const PlanPtr& query, const std::vector<InstantiatedView>& views) {
  if (root_ != -1) {
    return Status::InvalidArgument(
        "ValidityChecker is single-use; construct a fresh one per query");
  }
  // The whole-check guard: own deadline from ValidityOptions, inheriting
  // the executing query's cancellation/deadline when set_guard was called.
  // Probes derive per-probe child guards from it.
  common::QueryLimits check_limits;
  check_limits.timeout = options_.check_timeout;
  check_limits.max_memory_bytes = options_.check_max_memory_bytes;
  check_guard_ =
      std::make_unique<common::QueryGuard>(check_limits, parent_guard_);
  probe_status_ = Status::OK();
  FGAC_RETURN_NOT_OK(check_guard_->Check());

  ValidityReport report;
  report.views_considered = views.size();

  std::vector<const InstantiatedView*> usable;
  if (options_.prune_views) {
    usable =
        PruneViews(views, query, options_.enable_complex_rules, &catalog_);
  } else {
    for (const InstantiatedView& v : views) usable.push_back(&v);
  }
  report.views_pruned = views.size() - usable.size();

  root_ = memo_.InsertPlan(query);

  auto insert_views = [&]() -> Status {
    for (const InstantiatedView* v : usable) {
      if (v->is_access_pattern()) {
        if (options_.enable_access_patterns) {
          FGAC_RETURN_NOT_OK(InsertAccessPatternInstantiations(*v, query));
        }
        continue;
      }
      GroupId g = memo_.InsertPlan(v->plan);
      MarkU(g, "U1 (view '" + v->name + "')");
      witness_view_.emplace(g,
                            ViewWitness{v->name, algebra::OutputArity(*v->plan)});
    }
    return Status::OK();
  };

  // Expansion diagnostics accumulate across every ExpandMemo call — the
  // initial expansion plus each round's re-expansion — so the report shows
  // the whole search, not just its first sweep.
  optimizer::ExpandOptions expand = options_.expand;
  bool stopped_early = false;
  // Every expansion charges its newly created expressions against the
  // whole-check guard (per-expression approximation of node + group-list
  // overhead) — and through it the global MemoryTracker when attached —
  // so a runaway memo surfaces as kResourceExhausted that the caller can
  // degrade per policy instead of silently eating the process.
  constexpr uint64_t kApproxMemoExprBytes = 160;
  auto run_expand = [&]() -> Status {
    size_t exprs_before = memo_.num_exprs();
    optimizer::ExpandStats stats = optimizer::ExpandMemo(&memo_, expand);
    report.expansion_passes += stats.passes;
    report.groups_pruned += stats.groups_pruned;
    report.exprs_skipped += stats.exprs_skipped;
    report.frontier_depth = std::max(report.frontier_depth, stats.frontier_depth);
    stopped_early = stopped_early || stats.stopped_early;
    uint64_t added = memo_.num_exprs() - exprs_before;
    if (added > 0) {
      FGAC_RETURN_NOT_OK(
          check_guard_->ChargeBytes(added * kApproxMemoExprBytes));
    }
    return Status::OK();
  };
  // True iff any (canonical) group carries a conditional mark. Every
  // inference rule derives new marks from existing ones (U1 seeds at view
  // roots, Values nodes are vacuously valid via propagation, and U2/U3/C2/
  // C3/CAgg/dependent-join all require an already-marked input), so a memo
  // with no mark anywhere can never produce one: expansion and inference
  // would both be wasted work.
  auto any_valid_c = [&]() {
    for (optimizer::GroupId g = 0;
         g < static_cast<optimizer::GroupId>(memo_.num_groups()); ++g) {
      if (memo_.Find(g) == g && memo_.IsValidC(g)) return true;
    }
    return false;
  };
  // Goal-directed mode decides up front that inference cannot change the
  // verdict (root already proved, or nothing to prove from).
  bool skip_inference = false;

  if (options_.enable_complex_rules) {
    // Complex rules need equivalence rules applied to the views too
    // (Section 5.6.3): insert everything, then expand the combined DAG.
    FGAC_RETURN_NOT_OK(insert_views());
    if (options_.goal_directed_search) {
      // Seed marks before expanding: U1 view roots plus vacuously valid
      // constant subtrees, spread by hash-cons unification. The root may
      // already be proved with zero expansion (the query IS a view), and
      // an entirely unmarked memo is a certain rejection.
      PropagateValidity(nullptr);
      expand.root_goal = memo_.Find(root_);
      for (const InstantiatedView* v : usable) {
        if (!v->base_tables.empty()) {
          expand.goal_table_sets.push_back(v->base_tables);
        }
      }
      expand.should_stop = [this]() {
        // Abort expansion batches early on cancel/deadline; the blown
        // budget itself is re-raised by the Check() after expansion.
        if (!check_guard_->Check().ok()) return true;
        PropagateValidity(nullptr);
        return memo_.IsValidU(memo_.Find(root_));
      };
      if (memo_.IsValidU(memo_.Find(root_)) || !any_valid_c()) {
        skip_inference = true;
      } else {
        FGAC_RETURN_NOT_OK(run_expand());
      }
    } else {
      FGAC_RETURN_NOT_OK(run_expand());
    }
  } else {
    // Basic rules: only the query is expanded; view DAGs are unified
    // unexpanded (Section 5.6.2). A final subsumption-only pass adds the
    // σ-from-weaker-σ derivations of Section 5.6.1 (these extend the query
    // DAG with references to the view nodes, not the view DAGs themselves).
    FGAC_RETURN_NOT_OK(run_expand());
    FGAC_RETURN_NOT_OK(insert_views());
    optimizer::ExpandOptions subsumption_only;
    subsumption_only.enable_select_merge = false;
    subsumption_only.enable_select_pushdown = false;
    subsumption_only.enable_select_through_project = false;
    subsumption_only.enable_join_commute = false;
    subsumption_only.enable_join_assoc = false;
    subsumption_only.enable_aggregate_rules = false;
    subsumption_only.enable_distinct_elim = false;
    subsumption_only.max_passes = 2;
    subsumption_only.table_pk_slots = options_.expand.table_pk_slots;
    optimizer::ExpandMemo(&memo_, subsumption_only);
  }

  FGAC_RETURN_NOT_OK(check_guard_->Check());
  PropagateValidity(nullptr);
  if (options_.enable_access_patterns) {
    if (ApplyDependentJoinRule(views)) PropagateValidity(nullptr);
  }

  if (options_.enable_complex_rules && !skip_inference) {
    for (size_t round = 0; round < options_.max_inference_rounds; ++round) {
      FGAC_RETURN_NOT_OK(check_guard_->Check());
      bool changed = ApplyU3Rules();
      if (options_.enable_conditional_rules) {
        changed = ApplyC3Rules() || changed;
        changed = ApplyCAggRules() || changed;
      }
      if (options_.enable_access_patterns) {
        changed = ApplyDependentJoinRule(views) || changed;
      }
      // Speculative joins against inclusion-dependency targets: new
      // expressions need another expansion pass to connect with the views.
      if (ApplyJoinIntroduction()) changed = true;
      if (options_.enable_redundant_join_decomposition &&
          ApplyRedundantJoinDecomposition()) {
        changed = true;
      }
      // A blown probe budget fails the whole check — unless the query is
      // already admitted (U or C), in which case the verdict in hand is
      // sound and further probing could only refine it; stop burning
      // budget and report it.
      if (!probe_status_.ok()) {
        GroupId r = memo_.Find(root_);
        if (memo_.IsValidU(r) || memo_.IsValidC(r)) break;
        return probe_status_;
      }
      // Newly derived expressions (U3 cores, factored projections,
      // introduced joins) may enable further equivalence rules.
      if (changed) FGAC_RETURN_NOT_OK(run_expand());
      PropagateValidity(&changed);
      GroupId root = memo_.Find(root_);
      if (!changed || memo_.IsValidU(root)) break;
    }
  }
  FGAC_RETURN_NOT_OK(check_guard_->Check());

  GroupId root = memo_.Find(root_);
  // Created counts, not live counts: merged groups and deduplicated
  // expressions still cost their insertion, and the bench gate tracks the
  // work performed, not the survivor count (see ValidityReport).
  report.memo_groups = memo_.num_groups();
  report.memo_exprs = memo_.num_exprs();
  report.c3_probes = c3_probes_;
  report.probe_budget_exhausted = !probe_status_.ok();
  if (trace_ != nullptr) {
    ValidityTraceEvent e;
    e.kind = ValidityTraceEvent::Kind::kExpansion;
    e.detail = "passes=" + std::to_string(report.expansion_passes) +
               " groups_pruned=" + std::to_string(report.groups_pruned) +
               " exprs_skipped=" + std::to_string(report.exprs_skipped) +
               " frontier_depth=" + std::to_string(report.frontier_depth);
    if (skip_inference) e.detail += " skipped_inference=1";
    if (stopped_early) e.detail += " stopped_early=1";
    if (report.probe_budget_exhausted) e.detail += " probe_budget_exhausted=1";
    trace_->Add(std::move(e));
  }

  if (memo_.IsValidU(root)) {
    report.valid = true;
    report.unconditional = true;
  } else if (memo_.IsValidC(root)) {
    report.valid = true;
    report.unconditional = false;
  } else {
    report.valid = false;
    report.reason =
        "query cannot be inferred valid from the " +
        std::to_string(usable.size()) +
        " authorization view(s) available (rules U1-U3c, C1-C3b)";
    TraceVerdict(report);
    return report;
  }
  auto it = justification_.find(root);
  report.justification = it != justification_.end()
                             ? it->second
                             : (report.unconditional ? "U2" : "C2");
  TraceVerdict(report);
  return report;
}

void ValidityChecker::TraceVerdict(const ValidityReport& report) {
  if (trace_ == nullptr) return;
  ValidityTraceEvent e;
  e.kind = ValidityTraceEvent::Kind::kVerdict;
  e.valid = report.valid;
  e.unconditional = report.unconditional;
  e.detail = report.valid ? report.justification : report.reason;
  if (check_guard_ != nullptr) {
    e.guard_rows = check_guard_->rows_charged();
    e.guard_bytes = check_guard_->bytes_charged();
  }
  trace_->Add(std::move(e));
}

}  // namespace fgac::core
