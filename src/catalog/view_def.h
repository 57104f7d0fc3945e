#ifndef FGAC_CATALOG_VIEW_DEF_H_
#define FGAC_CATALOG_VIEW_DEF_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace fgac::catalog {

/// A stored view definition. Authorization views (paper Section 2) carry
/// `$` parameters (fixed per access context, e.g. $user-id) and `$$`
/// parameters (access-pattern parameters bindable to any value, Section 6).
struct ViewDefinition {
  std::string name;
  /// True for CREATE AUTHORIZATION VIEW; such views participate in validity
  /// inference when granted. False for ordinary relational views, which are
  /// macro-expanded into queries at binding time.
  bool is_authorization = false;
  std::shared_ptr<const sql::SelectStmt> select;
  /// Distinct `$` parameter names appearing in the definition.
  std::vector<std::string> parameters;
  /// Distinct `$$` parameter names appearing in the definition.
  std::vector<std::string> access_parameters;

  bool is_access_pattern() const { return !access_parameters.empty(); }
};

}  // namespace fgac::catalog

#endif  // FGAC_CATALOG_VIEW_DEF_H_
