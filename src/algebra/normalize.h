#ifndef FGAC_ALGEBRA_NORMALIZE_H_
#define FGAC_ALGEBRA_NORMALIZE_H_

#include <vector>

#include "algebra/plan.h"
#include "algebra/scalar.h"

namespace fgac::algebra {

/// Normalizes a scalar to a canonical form so that semantically identical
/// predicates written differently compare structurally equal:
///  * constant subexpressions are folded (unless evaluation would error),
///  * commutative operators (=, <>, +, *, OR, AND) order operands by
///    fingerprint,
///  * `>` / `>=` are rewritten to `<` / `<=` with swapped operands,
///  * double negation is removed, NOT is pushed over comparisons.
ScalarPtr NormalizeScalar(const ScalarPtr& s);

/// True for =, <>, <, <=, > and >=.
bool IsComparison(sql::BinOp op);

/// Appends the conjuncts of `s`'s AND tree to `out` left to right, neither
/// normalized nor deduplicated. A null scalar appends none.
void FlattenAnd(const ScalarPtr& s, std::vector<ScalarPtr>* out);

/// Flattens the AND-tree of `s` into normalized conjuncts, sorted by
/// fingerprint and deduplicated. A null scalar yields an empty list.
std::vector<ScalarPtr> SplitConjuncts(const ScalarPtr& s);

/// Normalizes a conjunct list: normalizes each element, re-splits nested
/// ANDs, sorts, dedups. TRUE literals are dropped.
std::vector<ScalarPtr> NormalizePredicates(std::vector<ScalarPtr> preds);

/// Normalizes a plan tree bottom-up:
///  * all embedded scalars normalized, predicate lists canonicalized,
///  * Select-over-Select merged, empty Select dropped,
///  * identity Project (slot i -> column i, same arity) dropped,
///  * Project-over-Project collapsed.
PlanPtr NormalizePlan(const PlanPtr& plan);

}  // namespace fgac::algebra

#endif  // FGAC_ALGEBRA_NORMALIZE_H_
