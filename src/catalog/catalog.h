#ifndef FGAC_CATALOG_CATALOG_H_
#define FGAC_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/constraint.h"
#include "catalog/principal.h"
#include "catalog/schema.h"
#include "catalog/view_def.h"
#include "common/result.h"

namespace fgac::catalog {

/// The system catalog: table schemas, view definitions, integrity
/// constraints, principals and grants, Truman-model policy views. All names
/// are stored lowercased (the lexer lowercases identifiers).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- Tables -------------------------------------------------------------
  Status AddTable(TableSchema schema);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  const TableSchema* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // --- Views --------------------------------------------------------------
  Status AddView(ViewDefinition view);
  Status DropView(const std::string& name);
  bool HasView(const std::string& name) const;
  const ViewDefinition* GetView(const std::string& name) const;
  std::vector<std::string> ViewNames() const;

  // --- Integrity constraints ----------------------------------------------
  Status AddConstraint(InclusionDependency dep);
  const std::vector<InclusionDependency>& constraints() const {
    return constraints_;
  }
  /// All constraints whose source table is `table`.
  std::vector<const InclusionDependency*> ConstraintsFrom(
      const std::string& table) const;

  // --- Principals and grants ----------------------------------------------
  /// Creates the principal if absent and returns it.
  Principal* GetOrCreatePrincipal(const std::string& name);
  const Principal* GetPrincipal(const std::string& name) const;

  /// Grants SELECT on `view_name` to `principal` (created if absent).
  Status GrantView(const std::string& view_name, const std::string& principal);

  /// Revokes a direct grant of `view_name` from `principal`. Grants held
  /// through roles are untouched (revoke them from the role).
  Status RevokeView(const std::string& view_name, const std::string& principal);

  /// Adds `role` to `principal`'s role set.
  Status GrantRole(const std::string& role, const std::string& principal);

  /// Resolves the full set of authorization views available to `user`:
  /// direct grants plus grants via (transitively held) roles. This models
  /// delegation composing outside the inference engine (paper Section 6).
  std::vector<const ViewDefinition*> AvailableViews(
      const std::string& user) const;

  /// Update authorizations applicable to `user` (direct + via roles).
  std::vector<const UpdateAuthorization*> AvailableUpdateAuthorizations(
      const std::string& user) const;

  // --- Truman policy (Section 3) -------------------------------------------
  /// Registers `view_name` as the Truman-model replacement for `table`:
  /// under Truman enforcement every reference to `table` is substituted by
  /// this (parameterized) view.
  Status SetTrumanView(const std::string& table, const std::string& view_name);
  /// Returns the Truman view name for `table`, or empty string if none.
  const std::string& TrumanViewFor(const std::string& table) const;

  // --- Policy epoch --------------------------------------------------------
  /// Monotonic counter covering every catalog mutation: table, view and
  /// constraint DDL, grants/revokes, role membership, Truman-view bindings
  /// and principal creation. Cached enforcement decisions (bound plans,
  /// validity verdicts, rewritten plans) carry the epoch they were computed
  /// under and are discarded on mismatch — fail-closed, so a verdict can
  /// never outlive the catalog state that produced it.
  uint64_t policy_epoch() const {
    return policy_epoch_.load(std::memory_order_acquire);
  }
  /// Called by every mutator above; public so engine paths that edit
  /// principals through GetOrCreatePrincipal() (e.g. AUTHORIZE) can record
  /// the change.
  void BumpPolicyEpoch() {
    policy_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  void CollectRolesInto(const std::string& name,
                        std::vector<const Principal*>* out) const;

  std::map<std::string, TableSchema> tables_;
  std::map<std::string, ViewDefinition> views_;
  std::vector<InclusionDependency> constraints_;
  std::map<std::string, Principal> principals_;
  std::map<std::string, std::string> truman_views_;
  std::atomic<uint64_t> policy_epoch_{1};
};

}  // namespace fgac::catalog

#endif  // FGAC_CATALOG_CATALOG_H_
