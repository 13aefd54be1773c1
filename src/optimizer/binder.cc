#include "optimizer/binder.h"

#include <algorithm>

namespace imon::optimizer {

using sql::Expr;
using sql::ExprKind;

void Binder::SplitConjuncts(const Expr* expr,
                            std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary &&
      expr->binary_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(expr->lhs.get(), out);
    SplitConjuncts(expr->rhs.get(), out);
    return;
  }
  out->push_back(expr);
}

uint64_t Binder::TablesUsed(const Expr& expr) {
  uint64_t mask = 0;
  if (expr.kind == ExprKind::kColumnRef && expr.bound_table >= 0) {
    mask |= 1ULL << expr.bound_table;
  }
  if (expr.lhs) mask |= TablesUsed(*expr.lhs);
  if (expr.rhs) mask |= TablesUsed(*expr.rhs);
  if (expr.low) mask |= TablesUsed(*expr.low);
  if (expr.high) mask |= TablesUsed(*expr.high);
  for (const auto& a : expr.args) mask |= TablesUsed(*a);
  for (const auto& e : expr.in_list) mask |= TablesUsed(*e);
  return mask;
}

Result<BoundTable> Binder::ResolveTable(const sql::TableRef& ref) {
  BoundTable out;
  out.alias = ref.EffectiveName();
  auto provider = catalog_->GetVirtualTable(ref.table);
  if (provider != nullptr) {
    out.is_virtual = true;
    out.provider = provider;
    catalog::TableInfo info;
    info.id = catalog::kInvalidObjectId;
    info.name = ref.table;
    info.columns = provider->Schema();
    for (size_t i = 0; i < info.columns.size(); ++i) {
      info.columns[i].ordinal = static_cast<int>(i);
    }
    out.info = std::move(info);
    return out;
  }
  IMON_ASSIGN_OR_RETURN(out.info, catalog_->GetTable(ref.table));
  return out;
}

Status Binder::BindExpr(Expr* expr, const std::vector<BoundTable>& tables,
                        ReferenceSet* refs, bool allow_aggregates,
                        std::vector<BoundAggregate>* aggs) {
  if (expr == nullptr) return Status::OK();
  switch (expr->kind) {
    case ExprKind::kLiteral:
    case ExprKind::kStar:
      return Status::OK();
    case ExprKind::kColumnRef: {
      int found_table = -1;
      int found_col = -1;
      for (size_t t = 0; t < tables.size(); ++t) {
        const BoundTable& bt = tables[t];
        if (!expr->qualifier.empty() && expr->qualifier != bt.alias &&
            expr->qualifier != bt.info.name) {
          continue;
        }
        auto ord = bt.info.FindColumn(expr->column);
        if (!ord.has_value()) continue;
        if (found_table >= 0) {
          return Status::InvalidArgument("ambiguous column '" + expr->column +
                                         "'");
        }
        found_table = static_cast<int>(t);
        found_col = *ord;
      }
      if (found_table < 0) {
        return Status::NotFound("unknown column '" +
                                (expr->qualifier.empty()
                                     ? expr->column
                                     : expr->qualifier + "." + expr->column) +
                                "'");
      }
      expr->bound_table = found_table;
      expr->bound_column = found_col;
      if (!tables[found_table].is_virtual) {
        refs->attributes.emplace(tables[found_table].info.id, found_col);
      }
      return Status::OK();
    }
    case ExprKind::kFuncCall: {
      static const std::set<std::string> kAggregates = {"count", "sum", "avg",
                                                        "min", "max"};
      if (kAggregates.count(expr->func_name)) {
        if (!allow_aggregates) {
          return Status::InvalidArgument(
              "aggregate '" + expr->func_name + "' not allowed here");
        }
        if (expr->args.size() != 1) {
          return Status::InvalidArgument("aggregate '" + expr->func_name +
                                         "' takes exactly one argument");
        }
        const bool is_star = expr->args[0]->kind == ExprKind::kStar;
        if (is_star && expr->func_name != "count") {
          return Status::InvalidArgument("'*' only valid in COUNT(*)");
        }
        if (!is_star) {
          // Aggregate arguments may not nest aggregates.
          IMON_RETURN_IF_ERROR(BindExpr(expr->args[0].get(), tables, refs,
                                        /*allow_aggregates=*/false, aggs));
        }
        if (aggs != nullptr) {
          BoundAggregate agg;
          agg.func = expr->func_name;
          agg.call = expr;
          agg.arg = is_star ? nullptr : expr->args[0].get();
          expr->agg_slot = static_cast<int>(aggs->size());
          aggs->push_back(agg);
        }
        return Status::OK();
      }
      // Scalar functions: abs, length, lower/upper.
      static const std::set<std::string> kScalars = {"abs", "length", "lower",
                                                     "upper"};
      if (!kScalars.count(expr->func_name)) {
        return Status::NotSupported("unknown function '" + expr->func_name +
                                    "'");
      }
      if (expr->args.size() != 1) {
        return Status::InvalidArgument("function '" + expr->func_name +
                                       "' takes exactly one argument");
      }
      if (expr->args[0]->kind == ExprKind::kStar) {
        return Status::InvalidArgument("'*' only valid in COUNT(*)");
      }
      return BindExpr(expr->args[0].get(), tables, refs, allow_aggregates,
                      aggs);
    }
    default:
      break;
  }
  IMON_RETURN_IF_ERROR(
      BindExpr(expr->lhs.get(), tables, refs, allow_aggregates, aggs));
  IMON_RETURN_IF_ERROR(
      BindExpr(expr->rhs.get(), tables, refs, allow_aggregates, aggs));
  IMON_RETURN_IF_ERROR(
      BindExpr(expr->low.get(), tables, refs, allow_aggregates, aggs));
  IMON_RETURN_IF_ERROR(
      BindExpr(expr->high.get(), tables, refs, allow_aggregates, aggs));
  for (auto& e : expr->in_list) {
    IMON_RETURN_IF_ERROR(
        BindExpr(e.get(), tables, refs, allow_aggregates, aggs));
  }
  return Status::OK();
}

Status Binder::CollectIndexReferences(const std::vector<BoundTable>& tables,
                                      ReferenceSet* refs) {
  for (const BoundTable& bt : tables) {
    if (bt.is_virtual) continue;
    refs->tables.insert(bt.info.id);
    for (const auto& idx : catalog_->IndexesOnTable(bt.info.id)) {
      refs->available_indexes.insert(idx.id);
    }
  }
  return Status::OK();
}

Result<BoundSelect> Binder::BindSelect(sql::SelectStmt* stmt) {
  BoundSelect out;
  out.stmt = stmt;
  if (stmt->from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  if (stmt->from.size() > 10) {
    return Status::NotSupported("more than 10 tables in one SELECT");
  }
  std::set<std::string> seen_aliases;
  for (const sql::TableRef& ref : stmt->from) {
    IMON_ASSIGN_OR_RETURN(BoundTable bt, ResolveTable(ref));
    if (!seen_aliases.insert(bt.alias).second) {
      return Status::InvalidArgument("duplicate table alias '" + bt.alias +
                                     "'");
    }
    out.tables.push_back(std::move(bt));
  }
  IMON_RETURN_IF_ERROR(CollectIndexReferences(out.tables, &out.references));

  // WHERE: bind then split.
  IMON_RETURN_IF_ERROR(BindExpr(stmt->where.get(), out.tables,
                                &out.references,
                                /*allow_aggregates=*/false, nullptr));
  SplitConjuncts(stmt->where.get(), &out.conjuncts);

  // Select list: expand stars, bind items, collect aggregates.
  for (sql::SelectItem& item : stmt->items) {
    if (item.is_star) {
      for (size_t t = 0; t < out.tables.size(); ++t) {
        const BoundTable& bt = out.tables[t];
        for (const auto& col : bt.info.columns) {
          sql::SelectItem expanded;
          expanded.expr = Expr::MakeColumn(bt.alias, col.name);
          expanded.expr->bound_table = static_cast<int>(t);
          expanded.expr->bound_column = col.ordinal;
          expanded.alias = col.name;
          if (!bt.is_virtual) {
            out.references.attributes.emplace(bt.info.id, col.ordinal);
          }
          out.items.push_back(std::move(expanded));
        }
      }
      continue;
    }
    IMON_RETURN_IF_ERROR(BindExpr(item.expr.get(), out.tables, &out.references,
                                  /*allow_aggregates=*/true, &out.aggregates));
    sql::SelectItem bound;
    bound.expr = std::move(item.expr);
    bound.alias = item.alias.empty() ? bound.expr->ToString() : item.alias;
    out.items.push_back(std::move(bound));
  }
  // Re-own the (possibly expanded) items; statement keeps its raw list
  // empty after binding.
  stmt->items.clear();

  // GROUP BY / HAVING / ORDER BY. Bare identifiers that fail to resolve
  // as columns may name a select-list alias (the usual ORDER BY alias /
  // GROUP BY alias extension); they are replaced by a clone of the
  // aliased expression.
  auto bind_with_alias_fallback = [&](sql::ExprPtr* expr,
                                      bool allow_aggregates) -> Status {
    Status s = BindExpr(expr->get(), out.tables, &out.references,
                        allow_aggregates, &out.aggregates);
    if (s.IsNotFound() && (*expr)->kind == ExprKind::kColumnRef &&
        (*expr)->qualifier.empty()) {
      for (const sql::SelectItem& item : out.items) {
        if (item.alias == (*expr)->column) {
          sql::ExprPtr clone = item.expr->Clone();
          // Register any aggregate calls inside the clone so the
          // executor can look up their values.
          return BindExpr((expr->operator=(std::move(clone))).get(),
                          out.tables, &out.references, allow_aggregates,
                          &out.aggregates);
        }
      }
    }
    return s;
  };

  for (auto& g : stmt->group_by) {
    IMON_RETURN_IF_ERROR(
        bind_with_alias_fallback(&g, /*allow_aggregates=*/false));
  }
  IMON_RETURN_IF_ERROR(BindExpr(stmt->having.get(), out.tables,
                                &out.references,
                                /*allow_aggregates=*/true, &out.aggregates));
  for (auto& o : stmt->order_by) {
    IMON_RETURN_IF_ERROR(
        bind_with_alias_fallback(&o.expr, /*allow_aggregates=*/true));
  }

  out.has_aggregates = !out.aggregates.empty() || !stmt->group_by.empty();
  if (out.has_aggregates) {
    // Every select item must be composed of aggregate calls, GROUP BY
    // expressions and constants — bare column references outside those
    // are invalid (e.g. `max(a) - min(a)` is fine, `a` alone is not).
    std::function<bool(const Expr&)> covered = [&](const Expr& e) -> bool {
      for (const auto& agg : out.aggregates) {
        if (agg.call == &e) return true;
      }
      for (const auto& g : stmt->group_by) {
        if (g->ToString() == e.ToString()) return true;
      }
      if (e.kind == ExprKind::kColumnRef) return false;
      if (e.lhs && !covered(*e.lhs)) return false;
      if (e.rhs && !covered(*e.rhs)) return false;
      if (e.low && !covered(*e.low)) return false;
      if (e.high && !covered(*e.high)) return false;
      for (const auto& a : e.args) {
        if (!covered(*a)) return false;
      }
      for (const auto& i : e.in_list) {
        if (!covered(*i)) return false;
      }
      return true;
    };
    for (const auto& item : out.items) {
      if (!covered(*item.expr)) {
        return Status::InvalidArgument(
            "column '" + item.expr->ToString() +
            "' must appear in GROUP BY or an aggregate");
      }
    }
  }
  return out;
}

Result<BoundModification> Binder::BindUpdate(sql::UpdateStmt* stmt) {
  BoundModification out;
  out.stmt = stmt;
  IMON_ASSIGN_OR_RETURN(out.table, ResolveTable({stmt->table, ""}));
  if (out.table.is_virtual) {
    return Status::InvalidArgument("cannot UPDATE virtual table '" +
                                   stmt->table + "'");
  }
  std::vector<BoundTable> tables = {out.table};
  IMON_RETURN_IF_ERROR(CollectIndexReferences(tables, &out.references));
  for (auto& [col, value] : stmt->assignments) {
    if (!out.table.info.FindColumn(col).has_value()) {
      return Status::NotFound("unknown column '" + col + "' in UPDATE");
    }
    IMON_RETURN_IF_ERROR(BindExpr(value.get(), tables, &out.references,
                                  /*allow_aggregates=*/false, nullptr));
  }
  IMON_RETURN_IF_ERROR(BindExpr(stmt->where.get(), tables, &out.references,
                                /*allow_aggregates=*/false, nullptr));
  SplitConjuncts(stmt->where.get(), &out.conjuncts);
  return out;
}

Result<BoundModification> Binder::BindDelete(sql::DeleteStmt* stmt) {
  BoundModification out;
  out.stmt = stmt;
  IMON_ASSIGN_OR_RETURN(out.table, ResolveTable({stmt->table, ""}));
  if (out.table.is_virtual) {
    return Status::InvalidArgument("cannot DELETE from virtual table '" +
                                   stmt->table + "'");
  }
  std::vector<BoundTable> tables = {out.table};
  IMON_RETURN_IF_ERROR(CollectIndexReferences(tables, &out.references));
  IMON_RETURN_IF_ERROR(BindExpr(stmt->where.get(), tables, &out.references,
                                /*allow_aggregates=*/false, nullptr));
  SplitConjuncts(stmt->where.get(), &out.conjuncts);
  return out;
}

Status Binder::BindScalar(sql::Expr* expr,
                          const std::vector<BoundTable>& tables) {
  ReferenceSet refs;
  return BindExpr(expr, tables, &refs, /*allow_aggregates=*/false, nullptr);
}

Result<TypeId> Binder::InferType(const Expr& expr,
                                 const std::vector<BoundTable>& tables) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.type();
    case ExprKind::kColumnRef: {
      if (expr.bound_table < 0 ||
          expr.bound_table >= static_cast<int>(tables.size())) {
        return Status::Internal("unbound column in InferType");
      }
      const auto& cols = tables[expr.bound_table].info.columns;
      if (expr.bound_column < 0 ||
          expr.bound_column >= static_cast<int>(cols.size())) {
        return Status::Internal("bad bound column in InferType");
      }
      return cols[expr.bound_column].type;
    }
    case ExprKind::kBinary: {
      switch (expr.binary_op) {
        case sql::BinaryOp::kAdd:
        case sql::BinaryOp::kSub:
        case sql::BinaryOp::kMul:
        case sql::BinaryOp::kDiv:
        case sql::BinaryOp::kMod: {
          IMON_ASSIGN_OR_RETURN(TypeId l, InferType(*expr.lhs, tables));
          IMON_ASSIGN_OR_RETURN(TypeId r, InferType(*expr.rhs, tables));
          if (l == TypeId::kDouble || r == TypeId::kDouble ||
              expr.binary_op == sql::BinaryOp::kDiv) {
            return TypeId::kDouble;
          }
          return TypeId::kInt;
        }
        default:
          return TypeId::kInt;  // comparisons and logic yield 0/1
      }
    }
    case ExprKind::kUnary:
      if (expr.unary_op == sql::UnaryOp::kNot) return TypeId::kInt;
      return InferType(*expr.lhs, tables);
    case ExprKind::kFuncCall: {
      if (expr.func_name == "count") return TypeId::kInt;
      if (expr.func_name == "avg") return TypeId::kDouble;
      if (expr.func_name == "length") return TypeId::kInt;
      if (expr.func_name == "lower" || expr.func_name == "upper")
        return TypeId::kText;
      if (expr.args.empty() || expr.args[0]->kind == ExprKind::kStar)
        return TypeId::kInt;
      return InferType(*expr.args[0], tables);  // sum/min/max/abs
    }
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      return TypeId::kInt;
    case ExprKind::kStar:
      return Status::Internal("InferType on star");
  }
  return Status::Internal("InferType: unhandled kind");
}

}  // namespace imon::optimizer
