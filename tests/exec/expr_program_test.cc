// Per-expression differential oracle for compiled expressions. The
// SELECT executor evaluates every expression as an ExprProgram; the
// tree-walking Eval (the DML evaluator) is the reference. Each
// expression below is compiled once and run over rows holding NULLs,
// text, doubles and wrongly typed values: Run must produce Eval's value
// exactly (or Eval's Status, message included), RunPredicate must match
// EvalPredicate, and FilterBatch must keep exactly the rows
// EvalPredicate accepts or fail with the first row's error.

#include "exec/expr_program.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/binder.h"
#include "sql/parser.h"
#include "tests/exec/batch_queries.h"

namespace imon::exec {
namespace {

using optimizer::OutputLayout;

/// Exact rendering of an evaluation outcome: doubles in hex-float form so
/// no rounding can hide a difference.
std::string Render(const Status& status, const Value& v) {
  if (!status.ok()) return "error " + status.ToString();
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case TypeId::kInt:
      return "int " + std::to_string(v.AsInt());
    case TypeId::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "double %a", v.AsDouble());
      return buf;
    }
    case TypeId::kText:
      return "text '" + v.AsText() + "'";
  }
  return "?";
}

std::string Render(const Result<Value>& r) {
  return r.ok() ? Render(Status::OK(), *r) : Render(r.status(), Value());
}

std::string RenderBool(const Status& status, bool b) {
  if (!status.ok()) return "error " + status.ToString();
  return b ? "true" : "false";
}

std::string RenderBool(const Result<bool>& r) {
  return r.ok() ? RenderBool(Status::OK(), *r) : RenderBool(r.status(), false);
}

/// Aggregate values handed to expressions over grouped rows: row `i`
/// sees slot `s` = kAggPool[(i + s) % size], so NULL, int, double and
/// text each reach every slot.
AggregateValues AggsFor(size_t row, size_t slots) {
  static const Value kAggPool[] = {Value::Int(12), Value::Null(),
                                   Value::Double(2.5), Value::Int(0),
                                   Value::Text("x"), Value::Int(-7)};
  AggregateValues aggs;
  for (size_t s = 0; s < slots; ++s) {
    aggs.push_back(kAggPool[(row + s) % std::size(kAggPool)]);
  }
  return aggs;
}

/// Compile `expr` and check Run, RunPredicate and FilterBatch against
/// Eval/EvalPredicate on every row. `agg_slots` > 0 supplies aggregate
/// values (grouped contexts: select items, HAVING, ORDER BY).
void ExpectAgrees(const sql::Expr& expr, const OutputLayout& layout,
                  const std::vector<Row>& rows, size_t agg_slots,
                  const std::string& label) {
  SCOPED_TRACE(label + "  [" + expr.ToString() + "]");
  auto program = ExprProgram::Compile(expr, layout);
  ASSERT_TRUE(program.ok()) << program.status();
  EvalScratch scratch;
  std::vector<uint32_t> want_sel;
  std::string want_batch_error;
  for (size_t i = 0; i < rows.size(); ++i) {
    AggregateValues aggs = AggsFor(i, agg_slots);
    const AggregateValues* a = agg_slots > 0 ? &aggs : nullptr;

    Value got;
    Status st = program->Run(rows[i], a, &scratch, &got);
    EXPECT_EQ(Render(st, got), Render(Eval(expr, layout, rows[i], a)))
        << "row " << i;

    bool pass = false;
    Status pst = program->RunPredicate(rows[i], a, &scratch, &pass);
    auto want = EvalPredicate(expr, layout, rows[i], a);
    EXPECT_EQ(RenderBool(pst, pass), RenderBool(want)) << "row " << i;
    if (want_batch_error.empty()) {
      if (!want.ok()) {
        want_batch_error = want.status().ToString();
      } else if (*want) {
        want_sel.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  if (agg_slots > 0) return;  // batches filter scan rows, never groups

  RowBatch batch;
  for (Row row : rows) batch.PushSwap(&row);
  Status bst = program->FilterBatch(&batch, &scratch);
  if (want_batch_error.empty()) {
    ASSERT_TRUE(bst.ok()) << bst;
    EXPECT_EQ(batch.sel, want_sel);
  } else {
    EXPECT_EQ(bst.ToString(), want_batch_error);
  }
}

// ---------------------------------------------------------------------------
// Constant expressions: every ExprEvalTest case plus LIKE patterns and
// type errors, over the empty layout.
// ---------------------------------------------------------------------------

const char* const kConstantExprs[] = {
    // Arithmetic and division by zero.
    "1 + 2 * 3", "(1 + 2) * 3", "10 - 4 - 3", "7 % 3", "1.5 * 2", "7 / 2",
    "7.0 / 2", "1 / 0", "1.5 / 0", "5 % 0", "-(3)", "-2.5",
    // Comparisons, cross-numeric included.
    "1 < 2", "2 <= 1", "'abc' = 'abc'", "'abc' < 'abd'", "3 <> 4",
    "2 = 2.0", "1 >= 1", "'b' > 'a'",
    // Three-valued logic.
    "1 = NULL", "NULL <> NULL", "FALSE AND NULL", "TRUE AND NULL",
    "TRUE OR NULL", "FALSE OR NULL", "NOT NULL", "1 + NULL", "NOT 0",
    // BETWEEN / IN / IS NULL.
    "5 BETWEEN 1 AND 10", "0 BETWEEN 1 AND 10", "5 NOT BETWEEN 1 AND 10",
    "NULL BETWEEN 1 AND 2", "3 IN (1, 2, 3)", "9 IN (1, 2, 3)",
    "9 NOT IN (1, 2, 3)", "9 IN (1, NULL)", "1 IN (1, NULL)",
    "NULL IN (1, 2)", "9 NOT IN (1, NULL)", "NULL IS NULL", "1 IS NULL",
    "1 IS NOT NULL",
    // Scalar functions and text.
    "abs(-5)", "abs(-2.5)", "length('hello')", "upper('aBc')",
    "lower('aBc')", "abs(NULL)", "length(12)", "upper(1.5)", "'ab' + 'cd'",
    // LIKE.
    "'hello' LIKE 'h%'", "'hello' LIKE '%ell%'", "'hello' LIKE 'h_llo'",
    "'hello' NOT LIKE 'x%'", "'' LIKE '_'", "'aXbXc' LIKE 'a%b%c'",
    "NULL LIKE '%'", "12 LIKE '1%'",
    // Type errors that are reached.
    "'a' - 1", "-'a'", "abs('a')", "1.5 % 2", "'a' * 2 > 1",
    "NOT ('a' - 1)", "1 IN (2, 'a' - 1)", "'a' - 1 BETWEEN 1 AND 2",
    "TRUE AND 'a' - 1 > 0", "FALSE OR 'a' - 1 > 0",
    // Type errors in branches that are never reached.
    "FALSE AND 'a' - 1 > 0", "TRUE OR 'a' - 1 > 0",
    "1 IN (1, 'a' - 1)", "NULL IN (1, 'a' - 1)",
    "(1 = 0 AND -'a' = 1) OR 2 > 1",
};

TEST(ExprProgramDifferentialTest, ConstantExpressions) {
  const OutputLayout layout;
  const std::vector<Row> rows = {Row{}};
  for (const char* text : kConstantExprs) {
    auto expr = sql::ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text << " -> " << expr.status();
    ExpectAgrees(**expr, layout, rows, /*agg_slots=*/0, text);
  }
}

// ---------------------------------------------------------------------------
// Bound expressions over t(id INT, v INT, tag TEXT).
// ---------------------------------------------------------------------------

class BoundExprTest : public ::testing::Test {
 protected:
  BoundExprTest() {
    catalog::TableInfo t;
    t.name = "t";
    t.columns = {Col("id", TypeId::kInt), Col("v", TypeId::kInt),
                 Col("tag", TypeId::kText)};
    EXPECT_TRUE(catalog_.CreateTable(t).ok());
  }

  static catalog::ColumnInfo Col(const char* name, TypeId type) {
    catalog::ColumnInfo c;
    c.name = name;
    c.type = type;
    return c;
  }

  /// Parse and bind a SELECT; the statement stays alive in stmts_.
  optimizer::BoundSelect Bind(const std::string& sql) {
    auto parsed = sql::Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql << " -> " << parsed.status();
    stmts_.push_back(parsed.TakeValue());
    optimizer::Binder binder(&catalog_);
    auto bound = binder.BindSelect(
        static_cast<sql::SelectStmt*>(stmts_.back().get()));
    EXPECT_TRUE(bound.ok()) << sql << " -> " << bound.status();
    return bound.TakeValue();
  }

  /// Rows as storage returns them (NULLs in v and tag, negative and zero
  /// values), plus values of the wrong type for their column — a double
  /// and a text v, an int tag — to reach every type-error path.
  static std::vector<Row> Rows() {
    std::vector<Row> rows;
    for (int i = 0; i < 24; ++i) {
      Value v = i % 7 == 0 ? Value::Null() : Value::Int(i % 10);
      Value tag = i % 11 == 0 ? Value::Null()
                              : Value::Text(i % 2 == 0 ? "even" : "odd");
      rows.push_back({Value::Int(i), v, tag});
    }
    rows.push_back({Value::Int(-3), Value::Int(-12), Value::Text("")});
    rows.push_back({Value::Int(30), Value::Double(2.5), Value::Text("e")});
    rows.push_back({Value::Int(31), Value::Double(-0.0), Value::Null()});
    rows.push_back({Value::Int(32), Value::Text("7"), Value::Text("odd")});
    rows.push_back({Value::Int(33), Value::Int(4), Value::Int(9)});
    return rows;
  }

  /// Every expression site of a bound SELECT that the executor compiles:
  /// WHERE conjuncts (scan filters), select items, GROUP BY keys,
  /// aggregate arguments, HAVING and ORDER BY keys.
  void CheckStatement(const std::string& sql) {
    optimizer::BoundSelect bound = Bind(sql);
    const OutputLayout layout = OutputLayout::ForTable(0, 1, 3);
    const std::vector<Row> rows = Rows();
    const size_t slots = bound.aggregates.size();
    const sql::SelectStmt& stmt = *bound.stmt;
    if (stmt.where) ExpectAgrees(*stmt.where, layout, rows, 0, sql + " WHERE");
    for (const sql::Expr* c : bound.conjuncts) {
      ExpectAgrees(*c, layout, rows, 0, sql + " conjunct");
    }
    for (const auto& item : bound.items) {
      ExpectAgrees(*item.expr, layout, rows, slots, sql + " item");
    }
    for (const auto& g : stmt.group_by) {
      ExpectAgrees(*g, layout, rows, 0, sql + " GROUP BY");
    }
    for (const auto& agg : bound.aggregates) {
      if (agg.arg != nullptr) {
        ExpectAgrees(*agg.arg, layout, rows, 0, sql + " aggregate argument");
      }
    }
    if (stmt.having) {
      ExpectAgrees(*stmt.having, layout, rows, slots, sql + " HAVING");
    }
    for (const auto& o : stmt.order_by) {
      ExpectAgrees(*o.expr, layout, rows, slots, sql + " ORDER BY");
    }
  }

  catalog::Catalog catalog_;
  std::vector<sql::StatementPtr> stmts_;
};

TEST_F(BoundExprTest, BatchQueryExpressions) {
  for (const char* q : imon::testing::kBatchQueries) CheckStatement(q);
}

// Column-bearing expressions whose type errors depend on the row: the
// error is raised only where the erroring branch is reached.
TEST_F(BoundExprTest, RowDependentTypeErrors) {
  const char* const kStatements[] = {
      "SELECT tag - 1 FROM t",
      "SELECT id FROM t WHERE v > 3 OR tag - 1 > 0",
      "SELECT id FROM t WHERE v IS NULL AND -tag = 1",
      "SELECT abs(tag), abs(v), -v FROM t",
      "SELECT id FROM t WHERE NOT (tag * 2 > 0)",
      "SELECT id FROM t WHERE v IN (1, tag - 1)",
      "SELECT id FROM t WHERE v % 2 = 1",
      "SELECT id FROM t WHERE v BETWEEN tag - 1 AND 3",
      "SELECT length(v), upper(tag), lower(tag) FROM t",
      "SELECT id FROM t WHERE tag LIKE 'o%' AND v / 0 IS NULL",
      "SELECT v + tag, tag + tag FROM t",
      "SELECT count(*) FROM t GROUP BY v HAVING max(v) - 1 > 2",
      "SELECT sum(v * 2) FROM t ORDER BY sum(v * 2) + 1",
  };
  for (const char* q : kStatements) CheckStatement(q);
}

}  // namespace
}  // namespace imon::exec
