#ifndef FGAC_EXEC_OPERATORS_H_
#define FGAC_EXEC_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "algebra/plan.h"
#include "algebra/scalar.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "common/value.h"
#include "exec/chunk.h"
#include "exec/key_table.h"

namespace fgac::storage {
class TableData;
}  // namespace fgac::storage

namespace fgac::exec {

/// Pull-based physical operator, vectorized: each Next() call fills a
/// DataChunk with up to ~DataChunk::kDefaultCapacity rows instead of
/// producing one tuple (the classic Volcano model this engine started from).
///
/// Contract:
///  - Open() resets state and prepares for iteration; it may be called again
///    after exhaustion to re-scan.
///  - Next(out) reshapes `out` and fills it with the next batch. It returns
///    true when `out` holds at least one row and false exactly at end of
///    stream (with `out` empty). Operators never return true with an empty
///    chunk, so callers can drive pipelines with `while (Next(chunk)) ...`.
class Operator {
 public:
  virtual ~Operator() = default;
  Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  virtual Status Open() = 0;

  /// Fills `out` with the next batch; false = exhausted.
  virtual Result<bool> Next(DataChunk& out) = 0;

  /// Attaches a query guardrail (may be null = no limits). Pipeline
  /// sources check it per chunk; materializing operators also charge
  /// rows/bytes. BuildPhysicalPlan sets it on every node, so manual
  /// operator assembly (tests, benches) may skip it entirely.
  void set_guard(common::QueryGuard* guard) { guard_ = guard; }
  common::QueryGuard* guard() const { return guard_; }

 protected:
  common::QueryGuard* guard_ = nullptr;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Scans a base table through TableData's chunked access path, or a borrowed
/// row vector (materialized input). Either source is BORROWED and must
/// outlive the operator — see BuildPhysicalPlan for the lifetime argument.
class ScanOp final : public Operator {
 public:
  explicit ScanOp(const storage::TableData* table) : table_(table) {}
  explicit ScanOp(const std::vector<Row>* rows) : rows_(rows) {}
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(DataChunk& out) override;

 private:
  const storage::TableData* table_ = nullptr;  // exactly one of table_/rows_
  const std::vector<Row>* rows_ = nullptr;     // is non-null
  size_t pos_ = 0;
};

/// Emits an owned row vector (VALUES). Rows may have arity zero
/// (`SELECT 1` scans a one-row, zero-column VALUES).
class ValuesOp final : public Operator {
 public:
  explicit ValuesOp(std::vector<Row> rows) : rows_(std::move(rows)) {}
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class FilterOp final : public Operator {
 public:
  FilterOp(std::vector<algebra::ScalarPtr> predicates, OperatorPtr child)
      : predicates_(std::move(predicates)), child_(std::move(child)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<algebra::ScalarPtr> predicates_;
  OperatorPtr child_;
  DataChunk input_;
  Selection sel_;
};

class ProjectOp final : public Operator {
 public:
  ProjectOp(std::vector<algebra::ScalarPtr> exprs, OperatorPtr child)
      : exprs_(std::move(exprs)), child_(std::move(child)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<algebra::ScalarPtr> exprs_;
  OperatorPtr child_;
  DataChunk input_;
};

/// Block nested-loop join: materializes the right input once, then streams
/// left chunks against it, applying all predicates to the cross product.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(std::vector<algebra::ScalarPtr> predicates,
                   OperatorPtr left, OperatorPtr right)
      : predicates_(std::move(predicates)),
        left_(std::move(left)),
        right_(std::move(right)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<algebra::ScalarPtr> predicates_;
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Row> right_rows_;
  size_t right_width_ = 0;
  DataChunk left_chunk_;
  size_t left_pos_ = 0;  // next left row to expand
  DataChunk scratch_;
  Selection sel_;
};

/// Materialized build side of a hash join: a KeyTable over the distinct
/// equi-keys, the build rows column-wise, and per key a chain of its rows
/// in build order. Built once by draining the build input, then probed
/// read-only — which is what lets the parallel executor share one build
/// across several concurrent probe pipelines.
struct HashJoinTable {
  static constexpr uint32_t kEnd = UINT32_MAX;

  KeyTable keys;
  std::vector<ColumnVector> columns;  // build rows, column-wise
  std::vector<uint32_t> head;  // per key id: its first build row
  std::vector<uint32_t> next;  // per build row: next row of its key, or kEnd

  size_t num_rows() const { return next.size(); }

  /// Drains `build` (already Open) into the table, evaluating `key_exprs`
  /// against each build chunk. Rows with a NULL key are skipped (NULL keys
  /// never match in an equi-join). `guard` (may be null) is charged for
  /// the materialized build rows.
  Status BuildFrom(Operator& build,
                   const std::vector<algebra::ScalarPtr>& key_exprs,
                   common::QueryGuard* guard = nullptr);
};

/// Streaming probe state over a HashJoinTable. Owned per pipeline (each
/// probing thread has its own cursor) while the table itself is shared.
class HashProbeCursor {
 public:
  void Reset();
  /// Pulls probe chunks from `left`, joins them against `table`, applies
  /// `residual` to the concatenated rows, and fills `out` with the next
  /// batch of matches. Same contract as Operator::Next. Matches come out in
  /// probe order, and per probe row in build order.
  Result<bool> Next(Operator& left,
                    const std::vector<algebra::ScalarPtr>& left_keys,
                    const std::vector<algebra::ScalarPtr>& residual,
                    const HashJoinTable& table, DataChunk& out);

 private:
  DataChunk left_chunk_;
  std::vector<ColumnVector> left_key_cols_;  // keys of left_chunk_, batched
  size_t left_pos_ = 0;  // next probe row
  // One block of (probe row, build row) pairs, gathered column-at-a-time.
  Selection probe_sel_;
  Selection build_sel_;
  DataChunk scratch_;
  Selection sel_;
};

/// Hash join on equi-key expressions; residual predicates applied to the
/// combined row. Builds on the right input, probes with left chunks.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(std::vector<algebra::ScalarPtr> left_keys,
             std::vector<algebra::ScalarPtr> right_keys,
             std::vector<algebra::ScalarPtr> residual, OperatorPtr left,
             OperatorPtr right)
      : left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        left_(std::move(left)),
        right_(std::move(right)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<algebra::ScalarPtr> left_keys_;
  std::vector<algebra::ScalarPtr> right_keys_;
  std::vector<algebra::ScalarPtr> residual_;
  OperatorPtr left_;
  OperatorPtr right_;
  HashJoinTable table_;
  HashProbeCursor probe_;
};

/// Aggregation state: a KeyTable over the group-by values, and one
/// accumulator per (group id, aggregate), group-major. Shared by
/// HashAggregateOp and the pipelined executor's per-task partials.
struct AggGroups {
  KeyTable groups;
  std::vector<algebra::AggAccumulator> accs;

  size_t size() const { return groups.size(); }
  /// Folds `other`, a partial over the same `num_aggs` aggregates, into
  /// this state; its groups are found again by their stored hashes.
  Status Merge(AggGroups other, size_t num_aggs);
};

/// Drains `child` (already Open), accumulating every row into `groups`.
/// Shared by HashAggregateOp and the parallel executor's per-thread partial
/// aggregation. `guard` (may be null) is charged for group-state growth.
Status AccumulateGroups(Operator& child,
                        const std::vector<algebra::ScalarPtr>& group_by,
                        const std::vector<algebra::AggExpr>& aggs,
                        AggGroups* groups,
                        common::QueryGuard* guard = nullptr);

/// Renders accumulated groups to output rows (group key columns, then one
/// column per aggregate), sorted by key (NULL first, then CompareAt) so
/// output is deterministic across runs and thread counts. Adds the global
/// empty group for scalar aggregates over empty input.
std::vector<Row> FinishGroups(const AggGroups& groups,
                              const std::vector<algebra::AggExpr>& aggs,
                              bool scalar_aggregate);

/// Hash aggregation; materializes all groups on Open.
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(std::vector<algebra::ScalarPtr> group_by,
                  std::vector<algebra::AggExpr> aggs, OperatorPtr child)
      : group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        child_(std::move(child)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<algebra::ScalarPtr> group_by_;
  std::vector<algebra::AggExpr> aggs_;
  OperatorPtr child_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Appends to `sel` the rows of `chunk` whose values `seen` has not held
/// yet, inserting them (DISTINCT over all columns, first occurrence kept).
void SelectNewRows(const DataChunk& chunk, KeyTable* seen, Selection* sel);

class DistinctOp final : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  OperatorPtr child_;
  KeyTable seen_;
  DataChunk input_;
  Selection sel_;
};

class SortOp final : public Operator {
 public:
  SortOp(std::vector<algebra::SortItem> items, OperatorPtr child)
      : items_(std::move(items)), child_(std::move(child)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<algebra::SortItem> items_;
  OperatorPtr child_;
  std::vector<Row> rows_;
  size_t width_ = 0;
  size_t pos_ = 0;
};

class LimitOp final : public Operator {
 public:
  LimitOp(int64_t limit, OperatorPtr child)
      : limit_(limit), child_(std::move(child)) {}
  Status Open() override {
    produced_ = 0;
    return child_->Open();
  }
  Result<bool> Next(DataChunk& out) override;

 private:
  int64_t limit_;
  OperatorPtr child_;
  int64_t produced_ = 0;
};

class UnionAllOp final : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {}
  Status Open() override;
  Result<bool> Next(DataChunk& out) override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

}  // namespace fgac::exec

#endif  // FGAC_EXEC_OPERATORS_H_
