#include "sql/printer.h"

#include <charconv>

#include "common/strings.h"

namespace fgac::sql {

namespace {

const char* BinOpSql(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kLike: return "LIKE";
  }
  return "?";
}

std::string TypeNameSql(TypeName t) {
  switch (t) {
    case TypeName::kInt: return "INT";
    case TypeName::kBigInt: return "BIGINT";
    case TypeName::kDouble: return "DOUBLE";
    case TypeName::kVarchar: return "VARCHAR";
    case TypeName::kBoolean: return "BOOLEAN";
  }
  return "?";
}

/// Doubles print in the shortest form that re-parses to the identical
/// value (Value::ToString's display rounds to 10 digits), so the canonical
/// text tells every two doubles apart. Integral values keep a ".0".
std::string LiteralSql(const Value& v) {
  if (!v.is_double()) return v.ToString();
  char buf[32];
  std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v.double_value());
  std::string out(buf, r.ptr);
  if (out.find_first_of(".ein") == std::string::npos) out += ".0";
  return out;
}

std::string ColumnList(const std::vector<std::string>& cols) {
  std::string out = "(";
  out += Join(cols, ", ") + ")";
  return out;
}

}  // namespace

std::string ExprToSql(const ExprPtr& expr) {
  if (expr == nullptr) return "<null>";
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return LiteralSql(expr->value);
    case ExprKind::kColumnRef:
      if (expr->qualifier.empty()) return expr->column;
      return expr->qualifier + "." + expr->column;
    case ExprKind::kParam:
      return "$" + expr->param_name;
    case ExprKind::kAccessParam:
      return "$$" + expr->param_name;
    case ExprKind::kBinary: {
      std::string out = "(";
      out += ExprToSql(expr->left) + " " + BinOpSql(expr->bin_op) + " ";
      out += ExprToSql(expr->right) + ")";
      return out;
    }
    case ExprKind::kUnary: {
      // A named operand: `"literal" + <temporary>` inserts at the front,
      // which GCC 12 misreports under -Wrestrict.
      const std::string operand = ExprToSql(expr->operand);
      switch (expr->un_op) {
        case UnOp::kNot:
          return "(NOT " + operand + ")";
        case UnOp::kNeg:
          return "(-" + operand + ")";
        case UnOp::kIsNull:
          return "(" + operand + " IS NULL)";
        case UnOp::kIsNotNull:
          return "(" + operand + " IS NOT NULL)";
      }
      return "?";
    }
    case ExprKind::kFuncCall: {
      std::string out = expr->func_name + "(";
      if (expr->star_arg) {
        out += "*";
      } else {
        if (expr->distinct_arg) out += "DISTINCT ";
        for (size_t i = 0; i < expr->args.size(); ++i) {
          if (i > 0) out += ", ";
          out += ExprToSql(expr->args[i]);
        }
      }
      out += ")";
      return out;
    }
    case ExprKind::kInList: {
      std::string out = "(";
      out += ExprToSql(expr->operand);
      if (expr->negated) out += " NOT";
      out += " IN (";
      for (size_t i = 0; i < expr->in_list.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToSql(expr->in_list[i]);
      }
      out += "))";
      return out;
    }
    case ExprKind::kBetween: {
      std::string out = "(";
      out += ExprToSql(expr->operand);
      if (expr->negated) out += " NOT";
      out += " BETWEEN " + ExprToSql(expr->left) + " AND " +
             ExprToSql(expr->right) + ")";
      return out;
    }
  }
  return "?";
}

std::string TableRefToSql(const TableRefPtr& ref) {
  if (ref == nullptr) return "<null>";
  if (ref->kind == TableRef::Kind::kNamed) {
    if (ref->alias.empty() || ref->alias == ref->name) return ref->name;
    return ref->name + " AS " + ref->alias;
  }
  std::string out = "(";
  out += TableRefToSql(ref->join_left) + " JOIN ";
  out += TableRefToSql(ref->join_right) + " ON ";
  out += ExprToSql(ref->join_on) + ")";
  return out;
}

std::string SelectToSql(const SelectStmt& stmt) {
  std::string out = "SELECT ";
  if (stmt.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      out += item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*";
    } else {
      out += ExprToSql(item.expr);
      if (!item.alias.empty()) out += " AS " + item.alias;
    }
  }
  if (!stmt.from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < stmt.from.size(); ++i) {
      if (i > 0) out += ", ";
      out += TableRefToSql(stmt.from[i]);
    }
  }
  if (stmt.where != nullptr) out += " WHERE " + ExprToSql(stmt.where);
  if (!stmt.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += ExprToSql(stmt.group_by[i]);
    }
  }
  if (stmt.having != nullptr) out += " HAVING " + ExprToSql(stmt.having);
  for (const auto& branch : stmt.union_all) {
    out += " UNION ALL " + SelectToSql(*branch);
  }
  if (!stmt.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += ExprToSql(stmt.order_by[i].expr);
      if (stmt.order_by[i].descending) out += " DESC";
    }
  }
  if (stmt.limit.has_value()) out += " LIMIT " + std::to_string(*stmt.limit);
  return out;
}

std::string StmtToSql(const Stmt& stmt) {
  switch (stmt.kind()) {
    case StmtKind::kSelect:
      return SelectToSql(static_cast<const SelectStmt&>(stmt));
    case StmtKind::kCreateTable: {
      const auto& s = static_cast<const CreateTableStmt&>(stmt);
      std::string out = "CREATE TABLE " + s.name + " (";
      for (size_t i = 0; i < s.columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += s.columns[i].name + " " + TypeNameSql(s.columns[i].type);
        if (s.columns[i].not_null) out += " NOT NULL";
      }
      if (!s.primary_key.empty()) {
        out += ", PRIMARY KEY " + ColumnList(s.primary_key);
      }
      for (const ForeignKeyClause& fk : s.foreign_keys) {
        out += ", FOREIGN KEY " + ColumnList(fk.columns) + " REFERENCES " +
               fk.ref_table;
        if (!fk.ref_columns.empty()) {
          out.append(" ").append(ColumnList(fk.ref_columns));
        }
      }
      out += ")";
      return out;
    }
    case StmtKind::kCreateView: {
      const auto& s = static_cast<const CreateViewStmt&>(stmt);
      std::string out = "CREATE ";
      if (s.authorization) out += "AUTHORIZATION ";
      out += "VIEW " + s.name + " AS " + SelectToSql(*s.select);
      return out;
    }
    case StmtKind::kCreateInclusion: {
      const auto& s = static_cast<const CreateInclusionStmt&>(stmt);
      std::string out = "CREATE INCLUSION DEPENDENCY " + s.name + " ON " +
                        s.src_table + " " + ColumnList(s.src_columns);
      if (s.src_where != nullptr) out += " WHERE " + ExprToSql(s.src_where);
      out += " REFERENCES " + s.dst_table + " " + ColumnList(s.dst_columns);
      return out;
    }
    case StmtKind::kInsert: {
      const auto& s = static_cast<const InsertStmt&>(stmt);
      std::string out = "INSERT INTO " + s.table;
      if (!s.columns.empty()) out.append(" ").append(ColumnList(s.columns));
      out += " VALUES ";
      for (size_t r = 0; r < s.rows.size(); ++r) {
        if (r > 0) out += ", ";
        out += "(";
        for (size_t i = 0; i < s.rows[r].size(); ++i) {
          if (i > 0) out += ", ";
          out += ExprToSql(s.rows[r][i]);
        }
        out += ")";
      }
      return out;
    }
    case StmtKind::kUpdate: {
      const auto& s = static_cast<const UpdateStmt&>(stmt);
      std::string out = "UPDATE " + s.table + " SET ";
      for (size_t i = 0; i < s.assignments.size(); ++i) {
        if (i > 0) out += ", ";
        out += s.assignments[i].first + " = " + ExprToSql(s.assignments[i].second);
      }
      if (s.where != nullptr) out += " WHERE " + ExprToSql(s.where);
      return out;
    }
    case StmtKind::kDelete: {
      const auto& s = static_cast<const DeleteStmt&>(stmt);
      std::string out = "DELETE FROM " + s.table;
      if (s.where != nullptr) out += " WHERE " + ExprToSql(s.where);
      return out;
    }
    case StmtKind::kGrant: {
      const auto& s = static_cast<const GrantStmt&>(stmt);
      return "GRANT SELECT ON " + s.object + " TO " + s.grantee;
    }
    case StmtKind::kRevoke: {
      const auto& s = static_cast<const RevokeStmt&>(stmt);
      return "REVOKE SELECT ON " + s.object + " FROM " + s.grantee;
    }
    case StmtKind::kExplain: {
      const auto& s = static_cast<const ExplainStmt&>(stmt);
      std::string head = s.analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ";
      if (s.execute != nullptr) return head + StmtToSql(*s.execute);
      return head + SelectToSql(*s.select);
    }
    case StmtKind::kPrepare: {
      const auto& s = static_cast<const PrepareStmt&>(stmt);
      return "PREPARE " + s.name + " AS " + SelectToSql(*s.select);
    }
    case StmtKind::kExecute: {
      const auto& s = static_cast<const ExecuteStmt&>(stmt);
      std::string out = "EXECUTE " + s.name;
      if (!s.args.empty()) {
        out += " (";
        for (size_t i = 0; i < s.args.size(); ++i) {
          if (i > 0) out += ", ";
          out += ExprToSql(s.args[i]);
        }
        out += ")";
      }
      return out;
    }
    case StmtKind::kDeallocate: {
      const auto& s = static_cast<const DeallocateStmt&>(stmt);
      return s.name.empty() ? "DEALLOCATE ALL" : "DEALLOCATE " + s.name;
    }
    case StmtKind::kAuthorize: {
      const auto& s = static_cast<const AuthorizeStmt&>(stmt);
      std::string out = "AUTHORIZE ";
      switch (s.op) {
        case AuthorizeStmt::Op::kInsert: out += "INSERT"; break;
        case AuthorizeStmt::Op::kUpdate: out += "UPDATE"; break;
        case AuthorizeStmt::Op::kDelete: out += "DELETE"; break;
      }
      out += " ON " + s.table;
      if (!s.columns.empty()) out.append(" ").append(ColumnList(s.columns));
      if (s.where != nullptr) out += " WHERE " + ExprToSql(s.where);
      return out;
    }
    case StmtKind::kDrop: {
      const auto& s = static_cast<const DropStmt&>(stmt);
      return std::string("DROP ") +
             (s.what == DropStmt::What::kTable ? "TABLE " : "VIEW ") + s.name;
    }
  }
  return "<stmt>";
}

}  // namespace fgac::sql
