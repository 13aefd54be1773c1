#include <gtest/gtest.h>

#include <functional>

#include "optimizer/binder.h"
#include "optimizer/cardinality.h"
#include "optimizer/planner.h"
#include "sql/parser.h"

namespace imon::optimizer {
namespace {

using catalog::Catalog;
using catalog::ColumnInfo;
using catalog::ObjectId;
using catalog::TableInfo;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() {
    TableInfo protein;
    protein.name = "protein";
    protein.columns = {Col("id", TypeId::kInt), Col("len", TypeId::kInt),
                       Col("name", TypeId::kText)};
    protein.structure = catalog::StorageStructure::kHeap;
    protein.row_count = 100000;
    protein.main_pages = 100;
    protein.overflow_pages = 1500;
    protein_id_ = *catalog_.CreateTable(protein);

    TableInfo organism;
    organism.name = "organism";
    organism.columns = {Col("pid", TypeId::kInt), Col("label", TypeId::kText)};
    organism.row_count = 140000;
    organism.main_pages = 2000;
    organism_id_ = *catalog_.CreateTable(organism);

    // Unique index on protein.id (the pkey analog).
    catalog::IndexInfo pkey;
    pkey.name = "protein_pkey";
    pkey.table_id = protein_id_;
    pkey.key_columns = {0};
    pkey.unique = true;
    pkey_id_ = *catalog_.CreateIndex(pkey);
  }

  static ColumnInfo Col(const char* name, TypeId type) {
    ColumnInfo c;
    c.name = name;
    c.type = type;
    return c;
  }

  /// Parse + bind a SELECT; the statement is kept alive in stmt_.
  BoundSelect MustBind(const std::string& sql) {
    auto parsed = sql::Parse(sql);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    stmt_ = std::move(parsed.TakeValue());
    Binder binder(&catalog_);
    auto bound =
        binder.BindSelect(static_cast<sql::SelectStmt*>(stmt_.get()));
    EXPECT_TRUE(bound.ok()) << sql << " -> " << bound.status();
    return bound.TakeValue();
  }

  std::unique_ptr<PlanNode> MustPlan(const BoundSelect& bound,
                                     PlannerOptions options = {}) {
    Planner planner(&catalog_, std::move(options));
    auto plan = planner.PlanJoinTree(bound);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.TakeValue();
  }

  Catalog catalog_;
  ObjectId protein_id_;
  ObjectId organism_id_;
  ObjectId pkey_id_;
  sql::StatementPtr stmt_;
};

TEST_F(OptimizerTest, BinderResolvesQualifiedAndBareColumns) {
  BoundSelect bound = MustBind(
      "SELECT p.id, len, label FROM protein p, organism o WHERE "
      "p.id = o.pid");
  ASSERT_EQ(bound.items.size(), 3u);
  EXPECT_EQ(bound.items[0].expr->bound_table, 0);
  EXPECT_EQ(bound.items[0].expr->bound_column, 0);
  EXPECT_EQ(bound.items[1].expr->bound_table, 0);  // len only in protein
  EXPECT_EQ(bound.items[2].expr->bound_table, 1);
  // References collected for the monitor.
  EXPECT_EQ(bound.references.tables.size(), 2u);
  EXPECT_TRUE(bound.references.available_indexes.count(pkey_id_));
}

TEST_F(OptimizerTest, BinderRejectsUnknownAndAmbiguous) {
  auto parsed = sql::Parse("SELECT nothing FROM protein");
  Binder binder(&catalog_);
  auto bound =
      binder.BindSelect(static_cast<sql::SelectStmt*>(parsed->get()));
  EXPECT_TRUE(bound.status().IsNotFound());

  // Same alias twice.
  parsed = sql::Parse("SELECT 1 FROM protein p, organism p");
  bound = binder.BindSelect(static_cast<sql::SelectStmt*>(parsed->get()));
  EXPECT_TRUE(bound.status().IsInvalidArgument());

  // Aggregates in WHERE are rejected.
  parsed = sql::Parse("SELECT id FROM protein WHERE count(*) > 1");
  bound = binder.BindSelect(static_cast<sql::SelectStmt*>(parsed->get()));
  EXPECT_FALSE(bound.ok());
}

TEST_F(OptimizerTest, BinderEnforcesGroupByCoverage) {
  auto parsed =
      sql::Parse("SELECT len, count(*) FROM protein GROUP BY name");
  Binder binder(&catalog_);
  auto bound =
      binder.BindSelect(static_cast<sql::SelectStmt*>(parsed->get()));
  EXPECT_TRUE(bound.status().IsInvalidArgument());
}

// `*` is an argument only to COUNT; anywhere else the statement is
// rejected at bind time instead of failing once a row reaches it.
TEST_F(OptimizerTest, BinderRejectsStarOutsideCount) {
  Binder binder(&catalog_);
  for (const char* sql :
       {"SELECT abs(*) FROM protein", "SELECT id FROM protein WHERE abs(*) < 0",
        "SELECT id FROM protein ORDER BY length(*)",
        "SELECT sum(upper(*)) FROM protein", "SELECT sum(*) FROM protein"}) {
    auto parsed = sql::Parse(sql);
    ASSERT_TRUE(parsed.ok()) << sql << " -> " << parsed.status();
    auto bound =
        binder.BindSelect(static_cast<sql::SelectStmt*>(parsed->get()));
    EXPECT_TRUE(bound.status().IsInvalidArgument()) << sql;
    EXPECT_EQ(bound.status().message(), "'*' only valid in COUNT(*)") << sql;
  }
  BoundSelect ok = MustBind("SELECT count(*) FROM protein");
  ASSERT_EQ(ok.aggregates.size(), 1u);
  EXPECT_EQ(ok.aggregates[0].arg, nullptr);
}

// A conjunct that references no table lands in every base scan's filters,
// the only plan nodes whose filters the executor and DML evaluate.
TEST_F(OptimizerTest, ConstantConjunctFiltersEveryScan) {
  BoundSelect bound = MustBind(
      "SELECT p.id FROM protein p, organism o WHERE p.id = o.pid AND 1 = 0");
  auto plan = MustPlan(bound);
  std::vector<const PlanNode*> scans;
  std::function<void(const PlanNode&)> collect = [&](const PlanNode& n) {
    if (n.kind == PlanNodeKind::kScan) scans.push_back(&n);
    if (n.left) collect(*n.left);
    if (n.right) collect(*n.right);
  };
  collect(*plan);
  ASSERT_EQ(scans.size(), 2u);
  for (const PlanNode* scan : scans) {
    bool has_constant = false;
    for (const sql::Expr* f : scan->filters) {
      has_constant = has_constant || Binder::TablesUsed(*f) == 0;
    }
    EXPECT_TRUE(has_constant) << "scan of table " << scan->table_idx;
  }
}

TEST_F(OptimizerTest, StarExpansionCoversAllTables) {
  BoundSelect bound = MustBind("SELECT * FROM protein p, organism o");
  EXPECT_EQ(bound.items.size(), 5u);  // 3 + 2 columns
}

TEST_F(OptimizerTest, UniqueIndexPointLookupWins) {
  BoundSelect bound = MustBind("SELECT len FROM protein WHERE id = 42");
  auto plan = MustPlan(bound);
  EXPECT_EQ(plan->kind, PlanNodeKind::kScan);
  EXPECT_EQ(plan->access.kind, AccessPathKind::kSecondaryIndex);
  EXPECT_EQ(plan->access.index.id, pkey_id_);
  EXPECT_LE(plan->est_rows, 1.5);
}

TEST_F(OptimizerTest, SeqScanWhenNoUsableIndex) {
  BoundSelect bound = MustBind("SELECT id FROM protein WHERE len > 100");
  auto plan = MustPlan(bound);
  EXPECT_EQ(plan->access.kind, AccessPathKind::kSeqScan);
  ASSERT_EQ(plan->filters.size(), 1u);
}

TEST_F(OptimizerTest, VirtualIndexChangesThePlan) {
  catalog::IndexInfo virt;
  virt.id = -5;
  virt.name = "virt_len";
  virt.table_id = protein_id_;
  virt.key_columns = {1};
  virt.is_virtual = true;

  BoundSelect bound = MustBind("SELECT id FROM protein WHERE len = 7");
  PlannerOptions options;
  options.virtual_indexes = {virt};
  Planner planner(&catalog_, options);
  auto plan = planner.PlanJoinTree(bound);
  ASSERT_TRUE(plan.ok());
  // Without statistics, equality selectivity defaults to 10%; the
  // unclustered probe of 10k rows loses to the scan. The *what-if*
  // machinery still reports the index when it wins — bound tighter:
  BoundSelect tight = MustBind(
      "SELECT id FROM protein WHERE len = 7 AND id = 3");
  auto tight_plan = planner.PlanJoinTree(tight);
  ASSERT_TRUE(tight_plan.ok());
  PlanSummary summary = planner.Summarize(**tight_plan, tight);
  // The unique pkey path dominates; used indexes listed for the monitor.
  EXPECT_FALSE(summary.used_indexes.empty());
}

TEST_F(OptimizerTest, JoinPrefersHashOverCartesian) {
  BoundSelect bound = MustBind(
      "SELECT p.id FROM protein p JOIN organism o ON p.id = o.pid");
  auto plan = MustPlan(bound);
  EXPECT_TRUE(plan->kind == PlanNodeKind::kHashJoin ||
              plan->kind == PlanNodeKind::kIndexNLJoin)
      << plan->ToString();
  EXPECT_EQ(plan->table_mask, 0b11u);
}

TEST_F(OptimizerTest, IndexNLJoinChosenForSelectiveOuter) {
  // Outer restricted to one row by the unique pkey; the inner probe goes
  // through protein's pkey when organism drives... construct the
  // direction where the indexed table is inner:
  BoundSelect bound = MustBind(
      "SELECT o.label FROM organism o JOIN protein p ON o.pid = p.id "
      "WHERE o.label = 'x'");
  auto plan = MustPlan(bound);
  // The planner should use protein_pkey for the join, either as an
  // index-NL inner or at least report a join, never a cartesian NL.
  EXPECT_NE(plan->kind, PlanNodeKind::kNestedLoopJoin) << plan->ToString();
}

TEST_F(OptimizerTest, ThreeWayJoinCoversAllTables) {
  TableInfo extra;
  extra.name = "extra";
  extra.columns = {Col("pid", TypeId::kInt), Col("v", TypeId::kDouble)};
  extra.row_count = 5000;
  extra.main_pages = 50;
  ASSERT_TRUE(catalog_.CreateTable(extra).ok());

  BoundSelect bound = MustBind(
      "SELECT p.id FROM protein p JOIN organism o ON p.id = o.pid JOIN "
      "extra e ON p.id = e.pid WHERE e.v > 1.5");
  auto plan = MustPlan(bound);
  EXPECT_EQ(plan->table_mask, 0b111u);
  // Both joins are present in the tree.
  int joins = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind != PlanNodeKind::kScan) ++joins;
    if (n.left) walk(*n.left);
    if (n.right) walk(*n.right);
  };
  walk(*plan);
  EXPECT_EQ(joins, 2);
}

TEST_F(OptimizerTest, CartesianProductStillPlans) {
  BoundSelect bound = MustBind("SELECT p.id FROM protein p, organism o");
  auto plan = MustPlan(bound);
  EXPECT_EQ(plan->table_mask, 0b11u);
  EXPECT_GT(plan->est_rows, 1e9);  // 100k x 140k
}

TEST_F(OptimizerTest, SummaryAddsSortAndAggregateSurcharges) {
  BoundSelect plain = MustBind("SELECT id FROM protein");
  Planner planner(&catalog_);
  auto p1 = planner.PlanJoinTree(plain);
  double base = planner.Summarize(**p1, plain).TotalCost();

  BoundSelect sorted = MustBind("SELECT id FROM protein ORDER BY len");
  auto p2 = planner.PlanJoinTree(sorted);
  double with_sort = planner.Summarize(**p2, sorted).TotalCost();
  EXPECT_GT(with_sort, base);
}

TEST_F(OptimizerTest, CardinalityUsesHistograms) {
  // Attach a histogram: len uniform over [0, 99].
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) values.push_back(Value::Int(i % 100));
  catalog::ColumnStats stats;
  stats.has_histogram = true;
  stats.histogram = catalog::Histogram::Build(values, 32);
  ASSERT_TRUE(catalog_.SetColumnStats(protein_id_, 1, stats).ok());

  BoundSelect bound = MustBind("SELECT id FROM protein WHERE len = 7");
  CardinalityEstimator est(&catalog_, &bound.tables);
  double sel = est.ConjunctSelectivity(*bound.conjuncts[0]);
  EXPECT_NEAR(sel, 0.01, 0.003);  // 1 of 100 distinct values

  BoundSelect range = MustBind(
      "SELECT id FROM protein WHERE len BETWEEN 10 AND 29");
  double range_sel = est.ConjunctSelectivity(*range.conjuncts[0]);
  EXPECT_NEAR(range_sel, 0.2, 0.06);
}

TEST_F(OptimizerTest, CardinalityDefaultsWithoutStats) {
  BoundSelect bound = MustBind("SELECT id FROM protein WHERE name = 'x'");
  CardinalityEstimator est(&catalog_, &bound.tables);
  EXPECT_DOUBLE_EQ(est.ConjunctSelectivity(*bound.conjuncts[0]),
                   kDefaultEqSelectivity);
}

TEST_F(OptimizerTest, TablesUsedMask) {
  BoundSelect bound = MustBind(
      "SELECT p.id FROM protein p, organism o WHERE p.id = o.pid AND "
      "p.len > 3");
  ASSERT_EQ(bound.conjuncts.size(), 2u);
  EXPECT_EQ(Binder::TablesUsed(*bound.conjuncts[0]), 0b11u);
  EXPECT_EQ(Binder::TablesUsed(*bound.conjuncts[1]), 0b01u);
}

}  // namespace
}  // namespace imon::optimizer
