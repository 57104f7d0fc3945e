#include "catalog/catalog.h"

#include <set>

namespace fgac::catalog {

Status Catalog::AddTable(TableSchema schema) {
  if (HasTable(schema.name()) || HasView(schema.name())) {
    return Status::CatalogError("relation '" + schema.name() +
                                "' already exists");
  }
  std::string name = schema.name();
  tables_.emplace(std::move(name), std::move(schema));
  BumpPolicyEpoch();
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::CatalogError("table '" + name + "' does not exist");
  }
  BumpPolicyEpoch();
  return Status::OK();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

const TableSchema* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, schema] : tables_) out.push_back(name);
  return out;
}

Status Catalog::AddView(ViewDefinition view) {
  if (HasTable(view.name) || HasView(view.name)) {
    return Status::CatalogError("relation '" + view.name + "' already exists");
  }
  std::string name = view.name;
  views_.emplace(std::move(name), std::move(view));
  BumpPolicyEpoch();
  return Status::OK();
}

Status Catalog::DropView(const std::string& name) {
  if (views_.erase(name) == 0) {
    return Status::CatalogError("view '" + name + "' does not exist");
  }
  BumpPolicyEpoch();
  return Status::OK();
}

bool Catalog::HasView(const std::string& name) const {
  return views_.count(name) > 0;
}

const ViewDefinition* Catalog::GetView(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, view] : views_) out.push_back(name);
  return out;
}

Status Catalog::AddConstraint(InclusionDependency dep) {
  if (!HasTable(dep.src_table)) {
    return Status::CatalogError("constraint source table '" + dep.src_table +
                                "' does not exist");
  }
  if (!HasTable(dep.dst_table)) {
    return Status::CatalogError("constraint target table '" + dep.dst_table +
                                "' does not exist");
  }
  const TableSchema* src = GetTable(dep.src_table);
  const TableSchema* dst = GetTable(dep.dst_table);
  for (const std::string& c : dep.src_columns) {
    if (!src->FindColumn(c).has_value()) {
      return Status::CatalogError("constraint column '" + c +
                                  "' not in table '" + dep.src_table + "'");
    }
  }
  for (const std::string& c : dep.dst_columns) {
    if (!dst->FindColumn(c).has_value()) {
      return Status::CatalogError("constraint column '" + c +
                                  "' not in table '" + dep.dst_table + "'");
    }
  }
  constraints_.push_back(std::move(dep));
  BumpPolicyEpoch();
  return Status::OK();
}

std::vector<const InclusionDependency*> Catalog::ConstraintsFrom(
    const std::string& table) const {
  std::vector<const InclusionDependency*> out;
  for (const InclusionDependency& dep : constraints_) {
    if (dep.src_table == table) out.push_back(&dep);
  }
  return out;
}

Principal* Catalog::GetOrCreatePrincipal(const std::string& name) {
  auto it = principals_.find(name);
  if (it == principals_.end()) {
    Principal p;
    p.name = name;
    it = principals_.emplace(name, std::move(p)).first;
    BumpPolicyEpoch();
  }
  return &it->second;
}

const Principal* Catalog::GetPrincipal(const std::string& name) const {
  auto it = principals_.find(name);
  return it == principals_.end() ? nullptr : &it->second;
}

Status Catalog::GrantView(const std::string& view_name,
                          const std::string& principal) {
  const ViewDefinition* view = GetView(view_name);
  if (view == nullptr) {
    return Status::CatalogError("view '" + view_name + "' does not exist");
  }
  GetOrCreatePrincipal(principal)->granted_views.insert(view_name);
  BumpPolicyEpoch();
  return Status::OK();
}

Status Catalog::RevokeView(const std::string& view_name,
                           const std::string& principal) {
  Principal* p = GetOrCreatePrincipal(principal);
  if (p->granted_views.erase(view_name) == 0) {
    return Status::CatalogError("'" + principal + "' holds no direct grant on '" +
                                view_name + "'");
  }
  BumpPolicyEpoch();
  return Status::OK();
}

Status Catalog::GrantRole(const std::string& role,
                          const std::string& principal) {
  Principal* r = GetOrCreatePrincipal(role);
  r->is_role = true;
  GetOrCreatePrincipal(principal)->roles.insert(role);
  BumpPolicyEpoch();
  return Status::OK();
}

void Catalog::CollectRolesInto(const std::string& name,
                               std::vector<const Principal*>* out) const {
  const Principal* p = GetPrincipal(name);
  if (p == nullptr) return;
  for (const Principal* seen : *out) {
    if (seen == p) return;  // cycle / duplicate guard
  }
  out->push_back(p);
  for (const std::string& role : p->roles) CollectRolesInto(role, out);
}

std::vector<const ViewDefinition*> Catalog::AvailableViews(
    const std::string& user) const {
  std::vector<const Principal*> principals;
  CollectRolesInto(user, &principals);
  CollectRolesInto("public", &principals);
  std::set<std::string> names;
  for (const Principal* p : principals) {
    names.insert(p->granted_views.begin(), p->granted_views.end());
  }
  std::vector<const ViewDefinition*> out;
  for (const std::string& name : names) {
    const ViewDefinition* v = GetView(name);
    if (v != nullptr) out.push_back(v);
  }
  return out;
}

std::vector<const UpdateAuthorization*> Catalog::AvailableUpdateAuthorizations(
    const std::string& user) const {
  std::vector<const Principal*> principals;
  CollectRolesInto(user, &principals);
  CollectRolesInto("public", &principals);
  std::vector<const UpdateAuthorization*> out;
  for (const Principal* p : principals) {
    for (const UpdateAuthorization& ua : p->update_authorizations) {
      out.push_back(&ua);
    }
  }
  return out;
}

Status Catalog::SetTrumanView(const std::string& table,
                              const std::string& view_name) {
  if (!HasTable(table)) {
    return Status::CatalogError("table '" + table + "' does not exist");
  }
  if (!HasView(view_name)) {
    return Status::CatalogError("view '" + view_name + "' does not exist");
  }
  truman_views_[table] = view_name;
  BumpPolicyEpoch();
  return Status::OK();
}

const std::string& Catalog::TrumanViewFor(const std::string& table) const {
  static const std::string kEmpty;
  auto it = truman_views_.find(table);
  return it == truman_views_.end() ? kEmpty : it->second;
}

}  // namespace fgac::catalog
