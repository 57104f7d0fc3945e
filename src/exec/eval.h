#ifndef FGAC_EXEC_EVAL_H_
#define FGAC_EXEC_EVAL_H_

#include <optional>
#include <vector>

#include "algebra/scalar.h"
#include "common/result.h"
#include "common/value.h"
#include "exec/chunk.h"

namespace fgac::exec {

// ---------------------------------------------------------------------------
// Batched (column-at-a-time) expression evaluation
// ---------------------------------------------------------------------------
// The batched evaluator walks the expression tree once per chunk instead of
// once per row: each node produces a ColumnVector for all selected rows, so
// the per-tuple cost collapses to a tight loop over typed arrays. Semantics
// mirror algebra::EvalScalar exactly, including AND/OR short-circuiting:
// the right operand is only evaluated on rows the left operand did not
// decide, so errors (e.g. division by zero) surface for precisely the same
// rows as in the row-at-a-time engine.

/// Truth of element i in boolean context (nullopt = UNKNOWN), mirroring
/// algebra::SqlTruth without materializing a Value.
std::optional<bool> TruthAt(const ColumnVector& c, size_t i);

/// Evaluates `s` over the chunk rows listed in `sel`: out element k is the
/// value of `s` on row sel[k]. `out` is cleared first.
Status EvalScalarBatch(const algebra::ScalarPtr& s, const DataChunk& chunk,
                       const Selection& sel, ColumnVector* out);

/// Narrows `sel` to the rows passing every conjunct (SQL WHERE semantics:
/// UNKNOWN filters out). Conjuncts are applied left-to-right, each evaluated
/// only on rows that survived the previous ones. A comparison of an int,
/// double or string column with a literal (on either side) compares the
/// typed column with the constant in place; every other conjunct goes
/// through EvalScalarBatch, with the same answers and errors.
Status FilterSelection(const std::vector<algebra::ScalarPtr>& predicates,
                       const DataChunk& chunk, Selection* sel);

/// Evaluates a projection list over every row of `in`, producing `out` with
/// exprs.size() columns and in.size() rows.
Status ProjectChunk(const std::vector<algebra::ScalarPtr>& exprs,
                    const DataChunk& in, DataChunk* out);

/// sel = [0, 1, ..., n-1].
void IdentitySelection(size_t n, Selection* sel);

/// Splits join predicates (over the concatenated left+right slot space)
/// into hash-joinable equi-pairs and a residual list. An equi-pair is a
/// conjunct of the form <left-side scalar> = <right-side scalar> where each
/// side's slots fall entirely on one input.
struct JoinKeys {
  /// Key expressions evaluated against the LEFT row (left slot space).
  std::vector<algebra::ScalarPtr> left_keys;
  /// Key expressions evaluated against the RIGHT row (right slot space,
  /// i.e. already shifted down by the left arity).
  std::vector<algebra::ScalarPtr> right_keys;
  /// Conjuncts that are not equi-pairs (over the combined slot space).
  std::vector<algebra::ScalarPtr> residual;
};
JoinKeys SplitJoinKeys(const std::vector<algebra::ScalarPtr>& predicates,
                       size_t left_arity);

}  // namespace fgac::exec

#endif  // FGAC_EXEC_EVAL_H_
