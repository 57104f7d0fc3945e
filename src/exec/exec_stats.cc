#include "exec/exec_stats.h"

#include <chrono>

namespace fgac::exec {

using algebra::Plan;
using algebra::PlanKind;
using algebra::PlanPtr;

namespace {

std::string FormatMillis(uint64_t nanos) {
  // Fixed two-decimal milliseconds without pulling in <sstream>.
  uint64_t hundredths = nanos / 10000;  // 1e-5 s units
  return std::to_string(hundredths / 100) + "." +
         std::to_string((hundredths / 10) % 10) +
         std::to_string(hundredths % 10) + "ms";
}

void RenderNode(const PlanPtr& node, const ExecStats& stats, int indent,
                std::string* out) {
  if (node == nullptr) return;
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(PlanNodeLabel(*node));
  const OpStats* op = stats.Find(node.get());
  if (op != nullptr) {
    out->append("  [rows=" +
                std::to_string(op->rows_out.load(std::memory_order_relaxed)) +
                " chunks=" +
                std::to_string(op->chunks.load(std::memory_order_relaxed)) +
                " time=" +
                FormatMillis(op->nanos.load(std::memory_order_relaxed)) + "]");
  } else {
    out->append("  [not instrumented]");
  }
  out->push_back('\n');
  for (const PlanPtr& child : node->children) {
    RenderNode(child, stats, indent + 1, out);
  }
}

}  // namespace

std::string PlanNodeLabel(const Plan& node) {
  switch (node.kind) {
    case PlanKind::kGet:
      return "Scan(" + node.table + ")";
    case PlanKind::kValues:
      return "Values(" + std::to_string(node.rows.size()) + " rows)";
    case PlanKind::kSelect:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return node.predicates.empty() ? "CrossJoin" : "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit(" + std::to_string(node.limit) + ")";
    case PlanKind::kUnionAll:
      return "UnionAll";
  }
  return "?";
}

OpStats* ExecStats::NodeFor(const Plan* node) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<OpStats>& slot = nodes_[node];
  if (slot == nullptr) {
    slot = std::make_unique<OpStats>();
    slot->label = PlanNodeLabel(*node);
  }
  return slot.get();
}

const OpStats* ExecStats::Find(const Plan* node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void ExecStats::SetThreads(size_t n) {
  threads_ = n == 0 ? 1 : n;
  worker_morsels_.assign(threads_, 0);
}

void ExecStats::AddWorkerMorsels(size_t t, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (t < worker_morsels_.size()) worker_morsels_[t] += n;
}

void ExecStats::AddPipelineStat(PipelineStat stat) {
  std::lock_guard<std::mutex> lock(mu_);
  pipelines_.push_back(std::move(stat));
}

std::vector<PipelineStat> ExecStats::pipeline_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pipelines_;
}

std::string ExecStats::Render() const {
  std::string out;
  out += "execution: " + FormatMillis(exec_nanos_) + " on " +
         std::to_string(threads_) +
         (threads_ == 1 ? " worker" : " workers");
  if (validity_nanos_ > 0) {
    out += " (validity check: " + FormatMillis(validity_nanos_) + ")";
  }
  out.push_back('\n');
  if (threads_ > 1 && !worker_morsels_.empty()) {
    out += "morsels per worker:";
    for (uint64_t m : worker_morsels_) {
      out.append(" ").append(std::to_string(m));
    }
    out.push_back('\n');
  }
  std::vector<PipelineStat> pipelines = pipeline_stats();
  if (!pipelines.empty()) {
    out += "pipelines:\n";
    for (size_t i = 0; i < pipelines.size(); ++i) {
      const PipelineStat& p = pipelines[i];
      out += "  p" + std::to_string(i) + " " + p.kind + " " + p.label;
      if (p.cancelled) {
        out += "  [cancelled";
      } else {
        out += "  [tasks=" + std::to_string(p.tasks) +
               " rows=" + std::to_string(p.rows) +
               " time=" + FormatMillis(p.nanos);
      }
      if (!p.deps.empty()) {
        out += " deps=";
        for (size_t d = 0; d < p.deps.size(); ++d) {
          if (d > 0) out.push_back(',');
          out.append("p").append(std::to_string(p.deps[d]));
        }
      }
      out += "]\n";
    }
  }
  if (plan_ != nullptr) RenderNode(plan_, *this, 0, &out);
  return out;
}

Status StatsOp::Open() {
  stats_->opens.fetch_add(1, std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  Status s = child_->Open();
  stats_->nanos.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  return s;
}

Result<bool> StatsOp::Next(DataChunk& out) {
  auto t0 = std::chrono::steady_clock::now();
  Result<bool> r = child_->Next(out);
  stats_->nanos.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  if (r.ok() && r.value()) {
    stats_->rows_out.fetch_add(out.size(), std::memory_order_relaxed);
    stats_->chunks.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

}  // namespace fgac::exec
