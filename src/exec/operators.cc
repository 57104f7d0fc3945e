#include "exec/operators.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/fault_injection.h"
#include "exec/eval.h"
#include "storage/table_data.h"

namespace fgac::exec {

using algebra::AggAccumulator;
using algebra::ScalarPtr;

namespace {

/// Shared end-of-stream epilogue: leaves `out` empty per the Next contract.
Result<bool> Exhausted(DataChunk& out) {
  out.Reset(0);
  return false;
}

/// Emits the filtered rows of `src` into `out`, stealing the whole chunk
/// when the selection kept everything (the common all-pass case).
bool EmitSelected(DataChunk& src, const Selection& sel, DataChunk& out) {
  if (sel.empty()) return false;
  if (sel.size() == src.size()) {
    std::swap(out, src);
    return true;
  }
  out.Reset(src.num_columns());
  out.Reserve(sel.size());
  out.AppendSelected(src, sel);
  return true;
}

}  // namespace

Result<bool> ScanOp::Next(DataChunk& out) {
  // Pipeline sources are where per-chunk guard checks live: every chunk a
  // pipeline processes was pulled through a source, so a deadline/cancel
  // trips within one chunk of work.
  FGAC_RETURN_NOT_OK(common::GuardCheck(guard_));
  if (table_ != nullptr) {
    FGAC_ASSIGN_OR_RETURN(
        size_t n, table_->ScanChunk(pos_, DataChunk::kDefaultCapacity, &out));
    pos_ += n;
    FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard_, n));
    return n > 0;
  }
  out.Reset(rows_->empty() ? 0 : (*rows_)[0].size());
  size_t n = AppendRowsToChunk(*rows_, pos_, DataChunk::kDefaultCapacity, &out);
  pos_ += n;
  FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard_, n));
  return n > 0;
}

Result<bool> ValuesOp::Next(DataChunk& out) {
  FGAC_RETURN_NOT_OK(common::GuardCheck(guard_));
  out.Reset(rows_.empty() ? 0 : rows_[0].size());
  size_t n = AppendRowsToChunk(rows_, pos_, DataChunk::kDefaultCapacity, &out);
  pos_ += n;
  FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard_, n));
  return n > 0;
}

Result<bool> FilterOp::Next(DataChunk& out) {
  while (true) {
    FGAC_ASSIGN_OR_RETURN(bool more, child_->Next(input_));
    if (!more) return Exhausted(out);
    IdentitySelection(input_.size(), &sel_);
    FGAC_RETURN_NOT_OK(FilterSelection(predicates_, input_, &sel_));
    if (EmitSelected(input_, sel_, out)) return true;
  }
}

Result<bool> ProjectOp::Next(DataChunk& out) {
  FGAC_ASSIGN_OR_RETURN(bool more, child_->Next(input_));
  if (!more) return Exhausted(out);
  FGAC_RETURN_NOT_OK(ProjectChunk(exprs_, input_, &out));
  return true;
}

namespace {

/// Drains `op` into a row vector (build sides, sorts).
Status DrainToRows(Operator* op, std::vector<Row>* rows) {
  DataChunk chunk;
  while (true) {
    Result<bool> more = op->Next(chunk);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::OK();
    for (size_t i = 0; i < chunk.size(); ++i) {
      rows->push_back(chunk.GetRow(i));
    }
  }
}

}  // namespace

Status NestedLoopJoinOp::Open() {
  FGAC_RETURN_NOT_OK(left_->Open());
  FGAC_RETURN_NOT_OK(right_->Open());
  right_rows_.clear();
  FGAC_RETURN_NOT_OK(DrainToRows(right_.get(), &right_rows_));
  right_width_ = right_rows_.empty() ? 0 : right_rows_[0].size();
  FGAC_RETURN_NOT_OK(common::GuardChargeBytes(
      guard_, right_rows_.size() * common::ApproxRowBytes(right_width_)));
  left_chunk_.Reset(0);
  left_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::Next(DataChunk& out) {
  while (true) {
    // The cross product can dwarf the inputs, so the join itself checks
    // and charges per scratch block in addition to the source's checks.
    FGAC_RETURN_NOT_OK(common::GuardCheck(guard_));
    if (left_pos_ >= left_chunk_.size()) {
      FGAC_ASSIGN_OR_RETURN(bool more, left_->Next(left_chunk_));
      if (!more) return Exhausted(out);
      left_pos_ = 0;
    }
    // Expand left rows against the materialized right side until the
    // scratch chunk reaches capacity, then filter the block in one pass.
    scratch_.Reset(left_chunk_.num_columns() + right_width_);
    while (left_pos_ < left_chunk_.size() && !scratch_.full()) {
      for (const Row& r : right_rows_) {
        scratch_.AppendConcat(left_chunk_, left_pos_, r);
      }
      ++left_pos_;
    }
    if (scratch_.empty()) continue;
    FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard_, scratch_.size()));
    IdentitySelection(scratch_.size(), &sel_);
    FGAC_RETURN_NOT_OK(FilterSelection(predicates_, scratch_, &sel_));
    if (EmitSelected(scratch_, sel_, out)) return true;
  }
}

namespace {

bool AnyNullAt(const std::vector<ColumnVector>& cols, size_t i) {
  for (const ColumnVector& c : cols) {
    if (c.IsNull(i)) return true;
  }
  return false;
}

}  // namespace

Status HashJoinTable::BuildFrom(Operator& build,
                                const std::vector<ScalarPtr>& key_exprs,
                                common::QueryGuard* guard) {
  keys.Clear();
  columns.clear();
  head.clear();
  next.clear();
  std::vector<uint32_t> tail;  // per key id: its last build row so far
  DataChunk chunk;
  Selection id;
  Selection kept;
  std::vector<ColumnVector> key_cols(key_exprs.size());
  while (true) {
    FGAC_FAULT_POINT("exec.hash_join.build");
    FGAC_RETURN_NOT_OK(common::GuardCheck(guard));
    Result<bool> more = build.Next(chunk);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    columns.resize(chunk.num_columns());
    FGAC_RETURN_NOT_OK(common::GuardChargeBytes(
        guard, chunk.size() * common::ApproxRowBytes(columns.size())));
    IdentitySelection(chunk.size(), &id);
    for (size_t k = 0; k < key_exprs.size(); ++k) {
      FGAC_RETURN_NOT_OK(
          EvalScalarBatch(key_exprs[k], chunk, id, &key_cols[k]));
    }
    kept.clear();
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (AnyNullAt(key_cols, i)) continue;  // NULL keys never match.
      auto row = static_cast<uint32_t>(next.size());
      bool inserted = false;
      uint32_t key = keys.FindOrInsert(key_cols, i, HashKeyRow(key_cols, i),
                                       &inserted);
      if (inserted) {
        head.push_back(row);
        tail.push_back(row);
      } else {
        next[tail[key]] = row;
        tail[key] = row;
      }
      next.push_back(kEnd);
      kept.push_back(static_cast<uint32_t>(i));
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      columns[c].AppendSelected(chunk.column(c), kept);
    }
  }
  return Status::OK();
}

void HashProbeCursor::Reset() {
  left_chunk_.Reset(0);
  left_key_cols_.clear();
  left_pos_ = 0;
}

Result<bool> HashProbeCursor::Next(Operator& left,
                                   const std::vector<ScalarPtr>& left_keys,
                                   const std::vector<ScalarPtr>& residual,
                                   const HashJoinTable& table, DataChunk& out) {
  while (true) {
    if (left_pos_ >= left_chunk_.size()) {
      FGAC_ASSIGN_OR_RETURN(bool more, left.Next(left_chunk_));
      if (!more) return Exhausted(out);
      left_pos_ = 0;
      IdentitySelection(left_chunk_.size(), &sel_);
      left_key_cols_.resize(left_keys.size());
      for (size_t k = 0; k < left_keys.size(); ++k) {
        FGAC_RETURN_NOT_OK(EvalScalarBatch(left_keys[k], left_chunk_, sel_,
                                           &left_key_cols_[k]));
      }
    }
    // Collect (probe row, build row) pairs until the block is full; one
    // probe row's whole chain goes in, so a block may briefly overshoot.
    probe_sel_.clear();
    build_sel_.clear();
    while (left_pos_ < left_chunk_.size() &&
           build_sel_.size() < DataChunk::kDefaultCapacity) {
      size_t i = left_pos_++;
      if (AnyNullAt(left_key_cols_, i)) continue;
      uint32_t key =
          table.keys.Find(left_key_cols_, i, HashKeyRow(left_key_cols_, i));
      if (key == KeyTable::kNotFound) continue;
      for (uint32_t r = table.head[key]; r != HashJoinTable::kEnd;
           r = table.next[r]) {
        probe_sel_.push_back(static_cast<uint32_t>(i));
        build_sel_.push_back(r);
      }
    }
    if (build_sel_.empty()) continue;
    size_t left_width = left_chunk_.num_columns();
    scratch_.Reset(left_width + table.columns.size());
    for (size_t c = 0; c < left_width; ++c) {
      scratch_.column(c).AppendSelected(left_chunk_.column(c), probe_sel_);
    }
    for (size_t c = 0; c < table.columns.size(); ++c) {
      scratch_.column(left_width + c)
          .AppendSelected(table.columns[c], build_sel_);
    }
    scratch_.SetCardinality(build_sel_.size());
    if (residual.empty()) {
      std::swap(out, scratch_);
      return true;
    }
    IdentitySelection(scratch_.size(), &sel_);
    FGAC_RETURN_NOT_OK(FilterSelection(residual, scratch_, &sel_));
    if (EmitSelected(scratch_, sel_, out)) return true;
  }
}

Status HashJoinOp::Open() {
  FGAC_RETURN_NOT_OK(left_->Open());
  FGAC_RETURN_NOT_OK(right_->Open());
  FGAC_RETURN_NOT_OK(table_.BuildFrom(*right_, right_keys_, guard_));
  probe_.Reset();
  return Status::OK();
}

Result<bool> HashJoinOp::Next(DataChunk& out) {
  FGAC_ASSIGN_OR_RETURN(
      bool more, probe_.Next(*left_, left_keys_, residual_, table_, out));
  // Duplicate keys can fan one probe row out into many matches, so join
  // output is charged as work on top of what the sources charged.
  if (more) FGAC_RETURN_NOT_OK(common::GuardChargeRows(guard_, out.size()));
  return more;
}

Status AggGroups::Merge(AggGroups other, size_t num_aggs) {
  const std::vector<ColumnVector>& keys = other.groups.keys();
  for (uint32_t id = 0; id < other.size(); ++id) {
    bool inserted = false;
    uint32_t g =
        groups.FindOrInsert(keys, id, other.groups.hash(id), &inserted);
    for (size_t a = 0; a < num_aggs; ++a) {
      AggAccumulator& theirs = other.accs[id * num_aggs + a];
      if (inserted) {
        accs.push_back(std::move(theirs));
      } else {
        FGAC_RETURN_NOT_OK(accs[g * num_aggs + a].Merge(theirs));
      }
    }
  }
  return Status::OK();
}

Status AccumulateGroups(Operator& child,
                        const std::vector<ScalarPtr>& group_by,
                        const std::vector<algebra::AggExpr>& aggs,
                        AggGroups* groups, common::QueryGuard* guard) {
  DataChunk chunk;
  Selection id;
  std::vector<ColumnVector> group_cols(group_by.size());
  std::vector<ColumnVector> arg_cols(aggs.size());
  while (true) {
    Result<bool> more = child.Next(chunk);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    IdentitySelection(chunk.size(), &id);
    for (size_t g = 0; g < group_by.size(); ++g) {
      FGAC_RETURN_NOT_OK(EvalScalarBatch(group_by[g], chunk, id,
                                         &group_cols[g]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].arg == nullptr) continue;  // COUNT(*): no argument
      FGAC_RETURN_NOT_OK(EvalScalarBatch(aggs[a].arg, chunk, id,
                                         &arg_cols[a]));
    }
    FGAC_RETURN_NOT_OK(common::GuardCheck(guard));
    size_t new_groups = 0;
    for (size_t i = 0; i < chunk.size(); ++i) {
      bool inserted = false;
      uint32_t g = groups->groups.FindOrInsert(
          group_cols, i, HashKeyRow(group_cols, i), &inserted);
      if (inserted) {
        for (const algebra::AggExpr& a : aggs) groups->accs.emplace_back(a);
        ++new_groups;
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        Value v = aggs[a].arg == nullptr ? Value::Null()
                                         : arg_cols[a].GetValue(i);
        FGAC_RETURN_NOT_OK(groups->accs[g * aggs.size() + a].AddValue(v));
      }
    }
    FGAC_RETURN_NOT_OK(common::GuardChargeBytes(
        guard,
        new_groups * common::ApproxRowBytes(group_by.size() + aggs.size())));
  }
  return Status::OK();
}

std::vector<Row> FinishGroups(const AggGroups& groups,
                              const std::vector<algebra::AggExpr>& aggs,
                              bool scalar_aggregate) {
  std::vector<Row> results;
  if (groups.size() == 0) {
    if (scalar_aggregate) {
      Row out;
      for (const algebra::AggExpr& a : aggs) {
        out.push_back(AggAccumulator(a).Finish());
      }
      results.push_back(std::move(out));
    }
    return results;
  }
  const std::vector<ColumnVector>& keys = groups.groups.keys();
  std::vector<uint32_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
    for (const ColumnVector& c : keys) {
      int cmp = CompareKeyAt(c, a, c, b);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  results.reserve(order.size());
  for (uint32_t g : order) {
    Row out;
    out.reserve(keys.size() + aggs.size());
    for (const ColumnVector& c : keys) out.push_back(c.GetValue(g));
    for (size_t a = 0; a < aggs.size(); ++a) {
      out.push_back(groups.accs[g * aggs.size() + a].Finish());
    }
    results.push_back(std::move(out));
  }
  return results;
}

Status HashAggregateOp::Open() {
  FGAC_RETURN_NOT_OK(child_->Open());
  results_.clear();
  pos_ = 0;
  AggGroups groups;
  FGAC_RETURN_NOT_OK(
      AccumulateGroups(*child_, group_by_, aggs_, &groups, guard_));
  results_ = FinishGroups(groups, aggs_, group_by_.empty());
  return Status::OK();
}

Result<bool> HashAggregateOp::Next(DataChunk& out) {
  out.Reset(group_by_.size() + aggs_.size());
  size_t n =
      AppendRowsToChunk(results_, pos_, DataChunk::kDefaultCapacity, &out);
  pos_ += n;
  return n > 0;
}

void SelectNewRows(const DataChunk& chunk, KeyTable* seen, Selection* sel) {
  const std::vector<ColumnVector>& cols = chunk.columns();
  for (size_t i = 0; i < chunk.size(); ++i) {
    bool inserted = false;
    seen->FindOrInsert(cols, i, HashKeyRow(cols, i), &inserted);
    if (inserted) sel->push_back(static_cast<uint32_t>(i));
  }
}

Status DistinctOp::Open() {
  seen_.Clear();
  return child_->Open();
}

Result<bool> DistinctOp::Next(DataChunk& out) {
  while (true) {
    FGAC_ASSIGN_OR_RETURN(bool more, child_->Next(input_));
    if (!more) return Exhausted(out);
    sel_.clear();
    SelectNewRows(input_, &seen_, &sel_);
    // The key table grows by one stored row per kept input row.
    FGAC_RETURN_NOT_OK(common::GuardChargeBytes(
        guard_, sel_.size() * common::ApproxRowBytes(input_.num_columns())));
    if (EmitSelected(input_, sel_, out)) return true;
  }
}

Status SortOp::Open() {
  FGAC_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  width_ = 0;
  pos_ = 0;
  std::vector<std::pair<Row, Row>> keyed;
  DataChunk chunk;
  Selection id;
  std::vector<ColumnVector> key_cols(items_.size());
  while (true) {
    Result<bool> more = child_->Next(chunk);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    width_ = chunk.num_columns();
    // Sort materializes its whole input (plus sort keys).
    FGAC_RETURN_NOT_OK(common::GuardChargeBytes(
        guard_,
        chunk.size() * common::ApproxRowBytes(width_ + items_.size())));
    IdentitySelection(chunk.size(), &id);
    for (size_t k = 0; k < items_.size(); ++k) {
      FGAC_RETURN_NOT_OK(EvalScalarBatch(items_[k].expr, chunk, id,
                                         &key_cols[k]));
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row key;
      key.reserve(items_.size());
      for (const ColumnVector& c : key_cols) key.push_back(c.GetValue(i));
      keyed.emplace_back(std::move(key), chunk.GetRow(i));
    }
  }
  const auto& items = items_;
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&items](const auto& a, const auto& b) {
                     for (size_t i = 0; i < items.size(); ++i) {
                       int c = a.first[i].Compare(b.first[i]);
                       if (c != 0) return items[i].descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  rows_.reserve(keyed.size());
  for (auto& [key, row] : keyed) rows_.push_back(std::move(row));
  return Status::OK();
}

Result<bool> SortOp::Next(DataChunk& out) {
  out.Reset(width_);
  size_t n = AppendRowsToChunk(rows_, pos_, DataChunk::kDefaultCapacity, &out);
  pos_ += n;
  return n > 0;
}

Result<bool> LimitOp::Next(DataChunk& out) {
  if (produced_ >= limit_) return Exhausted(out);
  FGAC_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  int64_t remaining = limit_ - produced_;
  if (static_cast<int64_t>(out.size()) > remaining) {
    out.Truncate(static_cast<size_t>(remaining));
  }
  produced_ += static_cast<int64_t>(out.size());
  return !out.empty();
}

Status UnionAllOp::Open() {
  current_ = 0;
  for (OperatorPtr& child : children_) {
    FGAC_RETURN_NOT_OK(child->Open());
  }
  return Status::OK();
}

Result<bool> UnionAllOp::Next(DataChunk& out) {
  while (current_ < children_.size()) {
    FGAC_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
    if (more) return true;
    ++current_;
  }
  return Exhausted(out);
}

}  // namespace fgac::exec
