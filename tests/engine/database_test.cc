#include "engine/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>
#include <tuple>

#include "sql/normalizer.h"

namespace imon::engine {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(DatabaseOptions{}) {}

  QueryResult MustExec(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  void MakeProtein() {
    MustExec(
        "CREATE TABLE protein (nref_id INT PRIMARY KEY, sequence TEXT, "
        "seq_length INT, mol_weight DOUBLE)");
  }

  Database db_;
};

TEST_F(DatabaseTest, CreateInsertSelect) {
  MakeProtein();
  MustExec(
      "INSERT INTO protein VALUES (1, 'MKV', 3, 389.5), (2, 'AACD', 4, "
      "420.1)");
  QueryResult r = MustExec("SELECT nref_id, sequence FROM protein "
                           "WHERE nref_id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsText(), "AACD");
}

TEST_F(DatabaseTest, SelectStar) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'MKV', 3, 1.0)");
  QueryResult r = MustExec("SELECT * FROM protein");
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[0], "nref_id");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(DatabaseTest, PrimaryKeyEnforcedViaPkeyIndex) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0)");
  auto dup = db_.Execute("INSERT INTO protein VALUES (1, 'B', 1, 1.0)");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Failed statement rolled back: still exactly one row.
  QueryResult r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, PointQueryUsesPkeyIndex) {
  MakeProtein();
  for (int i = 0; i < 5000; ++i) {
    MustExec("INSERT INTO protein VALUES (" + std::to_string(i) +
             ", 'S', 1, 1.0)");
  }
  QueryResult r =
      MustExec("EXPLAIN SELECT nref_id FROM protein WHERE nref_id = 123");
  EXPECT_NE(r.stats.plan_text.find("protein_pkey"), std::string::npos)
      << r.stats.plan_text;
}

TEST_F(DatabaseTest, JoinsTwoTables) {
  MakeProtein();
  MustExec("CREATE TABLE organism (nref_id INT, ordinal INT, name TEXT)");
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0), (2, 'B', 1, 1.0)");
  MustExec("INSERT INTO organism VALUES (1, 0, 'e.coli'), "
           "(1, 1, 'h.sapiens'), (2, 0, 'yeast')");
  QueryResult r = MustExec(
      "SELECT p.nref_id, o.name FROM protein p JOIN organism o ON "
      "p.nref_id = o.nref_id WHERE p.nref_id = 1 ORDER BY o.ordinal");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsText(), "e.coli");
  EXPECT_EQ(r.rows[1][1].AsText(), "h.sapiens");
}

TEST_F(DatabaseTest, ThreeWayJoinWithAggregates) {
  MustExec("CREATE TABLE a (id INT, v INT)");
  MustExec("CREATE TABLE b (id INT, a_id INT)");
  MustExec("CREATE TABLE c (id INT, b_id INT, w DOUBLE)");
  for (int i = 0; i < 20; ++i) {
    MustExec("INSERT INTO a VALUES (" + std::to_string(i) + ", " +
             std::to_string(i * 10) + ")");
    MustExec("INSERT INTO b VALUES (" + std::to_string(i) + ", " +
             std::to_string(i % 5) + ")");
    MustExec("INSERT INTO c VALUES (" + std::to_string(i) + ", " +
             std::to_string(i % 7) + ", 1.5)");
  }
  QueryResult r = MustExec(
      "SELECT a.id, count(*), sum(c.w) FROM a JOIN b ON a.id = b.a_id "
      "JOIN c ON b.id = c.b_id GROUP BY a.id ORDER BY a.id");
  ASSERT_GT(r.rows.size(), 0u);
  // Every b row has a_id in [0,5), each joining c rows with b_id=b.id%7.
  EXPECT_LE(r.rows.size(), 5u);
}

TEST_F(DatabaseTest, UpdateAndDelete) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0), (2, 'B', 2, 2.0), "
           "(3, 'C', 3, 3.0)");
  QueryResult u =
      MustExec("UPDATE protein SET seq_length = 99 WHERE nref_id > 1");
  EXPECT_EQ(u.affected_rows, 2);
  QueryResult r =
      MustExec("SELECT count(*) FROM protein WHERE seq_length = 99");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  QueryResult d = MustExec("DELETE FROM protein WHERE nref_id = 2");
  EXPECT_EQ(d.affected_rows, 1);
  r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

// A WHERE conjunct that references no table (`1 = 0`, `abs(-1) = 5`)
// still filters: every statement kind honours it, on a seq scan, a
// primary-key probe and a join alike.
TEST_F(DatabaseTest, ConstantWhereConjunctsFilterEveryStatement) {
  struct Case {
    const char* where;  ///< "{id}" stands for the (qualified) id column
    std::vector<int64_t> ids;
  };
  const Case kCases[] = {
      {"1 = 0", {}},
      {"1 = 1 AND {id} = 1", {1}},
      {"abs(-1) = 5", {}},
      {"{id} = 2 AND 1 = 0", {}},
  };
  auto where = [](std::string tmpl, const std::string& id) {
    size_t pos = tmpl.find("{id}");
    if (pos != std::string::npos) tmpl.replace(pos, 4, id);
    return tmpl;
  };
  auto ids_of = [](const QueryResult& r) {
    std::vector<int64_t> ids;
    for (const Row& row : r.rows) ids.push_back(row[0].AsInt());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  MustExec("CREATE TABLE u (id INT, w INT)");
  MustExec("INSERT INTO u VALUES (1, 100), (2, 200)");
  for (size_t i = 0; i < std::size(kCases); ++i) {
    const Case& c = kCases[i];
    SCOPED_TRACE(c.where);
    const std::string t = "t" + std::to_string(i);
    MustExec("CREATE TABLE " + t + " (id INT PRIMARY KEY, v INT)");
    MustExec("INSERT INTO " + t + " VALUES (1, 10), (2, 20)");
    const int64_t n = static_cast<int64_t>(c.ids.size());

    QueryResult r =
        MustExec("SELECT id FROM " + t + " WHERE " + where(c.where, "id"));
    EXPECT_EQ(ids_of(r), c.ids);
    r = MustExec("SELECT count(*) FROM " + t + " WHERE " +
                 where(c.where, "id"));
    EXPECT_EQ(r.rows[0][0].AsInt(), n);
    r = MustExec("SELECT " + t + ".id, u.w FROM " + t + ", u WHERE " + t +
                 ".id = u.id AND " + where(c.where, t + ".id"));
    EXPECT_EQ(ids_of(r), c.ids);

    r = MustExec("UPDATE " + t + " SET v = 9 WHERE " + where(c.where, "id"));
    EXPECT_EQ(r.affected_rows, n);
    r = MustExec("SELECT id FROM " + t + " WHERE v = 9");
    EXPECT_EQ(ids_of(r), c.ids);

    r = MustExec("DELETE FROM " + t + " WHERE " + where(c.where, "id"));
    EXPECT_EQ(r.affected_rows, n);
    r = MustExec("SELECT id, v FROM " + t + " ORDER BY id");
    std::vector<int64_t> kept;
    for (int64_t id : {1, 2}) {
      if (std::find(c.ids.begin(), c.ids.end(), id) == c.ids.end()) {
        kept.push_back(id);
      }
    }
    EXPECT_EQ(ids_of(r), kept);
    for (const Row& row : r.rows) {
      EXPECT_EQ(row[1].AsInt(), row[0].AsInt() * 10);
    }
  }
}

TEST_F(DatabaseTest, GroupByHavingLimit) {
  MustExec("CREATE TABLE t (k INT, v INT)");
  for (int i = 0; i < 30; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i % 3) + ", " +
             std::to_string(i) + ")");
  }
  QueryResult r = MustExec(
      "SELECT k, count(*) AS n, avg(v) FROM t GROUP BY k "
      "HAVING count(*) >= 10 ORDER BY k DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt(), 10);
}

TEST_F(DatabaseTest, DistinctAndBetweenAndLike) {
  MustExec("CREATE TABLE t (v INT, s TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'apple'), (1, 'apple'), (2, 'banana'), "
           "(3, 'apricot')");
  QueryResult r = MustExec("SELECT DISTINCT v FROM t ORDER BY v");
  EXPECT_EQ(r.rows.size(), 3u);
  r = MustExec("SELECT count(*) FROM t WHERE v BETWEEN 2 AND 3");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  r = MustExec("SELECT count(*) FROM t WHERE s LIKE 'ap%'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(DatabaseTest, NullSemantics) {
  MustExec("CREATE TABLE t (v INT, s TEXT)");
  MustExec("INSERT INTO t (v) VALUES (1)");
  MustExec("INSERT INTO t VALUES (2, 'x')");
  QueryResult r = MustExec("SELECT count(*) FROM t WHERE s IS NULL");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  // NULL never equals anything.
  r = MustExec("SELECT count(*) FROM t WHERE s = 'x' OR s <> 'x'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  // count(s) skips NULLs.
  r = MustExec("SELECT count(s) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, NotNullConstraint) {
  MustExec("CREATE TABLE t (a INT NOT NULL, b INT)");
  EXPECT_FALSE(db_.Execute("INSERT INTO t (b) VALUES (1)").ok());
  MustExec("INSERT INTO t VALUES (1, NULL)");
}

TEST_F(DatabaseTest, ModifyToBtreeRemovesOverflow) {
  MustExec("CREATE TABLE big (id INT PRIMARY KEY, payload TEXT) "
           "WITH MAIN_PAGES = 2");
  for (int i = 0; i < 2000; ++i) {
    MustExec("INSERT INTO big VALUES (" + std::to_string(i) + ", '" +
             std::string(50, 'x') + "')");
  }
  MustExec("ANALYZE big");
  auto before = db_.catalog()->GetTable("big");
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before->overflow_pages, 0);
  MustExec("MODIFY big TO BTREE");
  auto after = db_.catalog()->GetTable("big");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->structure, catalog::StorageStructure::kBtree);
  EXPECT_EQ(after->overflow_pages, 0);
  EXPECT_EQ(after->row_count, 2000);
  // Data survives restructure + secondary indexes still work.
  QueryResult r = MustExec("SELECT count(*) FROM big WHERE id < 100");
  EXPECT_EQ(r.rows[0][0].AsInt(), 100);
}

TEST_F(DatabaseTest, ModifyToHashEnablesPointLookups) {
  MustExec("CREATE TABLE kv (id INT PRIMARY KEY, payload TEXT) "
           "WITH MAIN_PAGES = 16");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO kv VALUES (" + std::to_string(i) + ", 'p" +
             std::to_string(i) + "')");
  }
  MustExec("MODIFY kv TO HASH");
  auto info = db_.catalog()->GetTable("kv");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->structure, catalog::StorageStructure::kHash);
  MustExec("ANALYZE kv");

  // Point query plans a hash bucket probe.
  QueryResult plan = MustExec("EXPLAIN SELECT payload FROM kv WHERE id = 77");
  EXPECT_NE(plan.stats.plan_text.find("HashLookup"), std::string::npos)
      << plan.stats.plan_text;
  QueryResult r = MustExec("SELECT payload FROM kv WHERE id = 77");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "p77");

  // Range queries cannot use the hash structure.
  plan = MustExec("EXPLAIN SELECT payload FROM kv WHERE id < 10");
  EXPECT_EQ(plan.stats.plan_text.find("HashLookup"), std::string::npos);
  r = MustExec("SELECT count(*) FROM kv WHERE id < 10");
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);

  // DML still works on the hash structure.
  MustExec("UPDATE kv SET payload = 'updated' WHERE id = 5");
  r = MustExec("SELECT payload FROM kv WHERE id = 5");
  EXPECT_EQ(r.rows[0][0].AsText(), "updated");
  MustExec("DELETE FROM kv WHERE id = 5");
  r = MustExec("SELECT count(*) FROM kv");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2999);
  // Duplicate PKs rejected by the hash structure itself.
  auto dup = db_.Execute("INSERT INTO kv VALUES (77, 'dup')");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, ModifyToIsamRoutesRangeQueries) {
  MustExec("CREATE TABLE ts (id INT PRIMARY KEY, v TEXT)");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO ts VALUES (" + std::to_string(i) + ", 'v" +
             std::to_string(i) + "')");
  }
  MustExec("MODIFY ts TO ISAM");
  auto info = db_.catalog()->GetTable("ts");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->structure, catalog::StorageStructure::kIsam);
  EXPECT_EQ(info->row_count, 3000);
  EXPECT_EQ(info->overflow_pages, 0);  // fresh build
  MustExec("ANALYZE ts");

  QueryResult plan =
      MustExec("EXPLAIN SELECT v FROM ts WHERE id BETWEEN 100 AND 120");
  EXPECT_NE(plan.stats.plan_text.find("IsamScan"), std::string::npos)
      << plan.stats.plan_text;
  QueryResult r = MustExec("SELECT count(*) FROM ts WHERE id BETWEEN 100 "
                           "AND 120");
  EXPECT_EQ(r.rows[0][0].AsInt(), 21);
  r = MustExec("SELECT v FROM ts WHERE id = 77");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "v77");

  // Post-build inserts land in overflow chains; R3's signal accrues.
  for (int i = 3000; i < 6000; ++i) {
    MustExec("INSERT INTO ts VALUES (" + std::to_string(i) + ", 'o')");
  }
  MustExec("ANALYZE ts");
  info = db_.catalog()->GetTable("ts");
  EXPECT_GT(info->overflow_pages, 0);
  r = MustExec("SELECT count(*) FROM ts");
  EXPECT_EQ(r.rows[0][0].AsInt(), 6000);
}

TEST_F(DatabaseTest, AnalyzeImprovesEstimates) {
  MustExec("CREATE TABLE t (v INT)");
  for (int i = 0; i < 1000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i % 100) + ")");
  }
  QueryResult before = MustExec("SELECT v FROM t WHERE v = 5");
  MustExec("ANALYZE t");
  QueryResult after = MustExec("SELECT v FROM t WHERE v = 5");
  // 10 of 1000 rows match (1%); without statistics the default equality
  // selectivity (10%) predicts ~100 rows. The histogram fixes this — the
  // paper's "collect statistics" tuning signal.
  double truth = 10.0;
  EXPECT_GT(before.stats.estimated_rows, 50.0);
  EXPECT_LT(std::abs(after.stats.estimated_rows - truth),
            std::abs(before.stats.estimated_rows - truth));
  EXPECT_NEAR(after.stats.estimated_rows, truth, 5.0);
}

TEST_F(DatabaseTest, SecondaryIndexUsedAfterCreate) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  // b is highly selective (~2 matches in 3000) so an unclustered index
  // probe beats the sequential scan once the index exists.
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i / 2) + ")");
  }
  MustExec("ANALYZE t");
  QueryResult no_index = MustExec("EXPLAIN SELECT a FROM t WHERE b = 7");
  EXPECT_EQ(no_index.stats.plan_text.find("IndexScan"), std::string::npos);
  MustExec("CREATE INDEX t_b ON t (b)");
  QueryResult with_index = MustExec("EXPLAIN SELECT a FROM t WHERE b = 7");
  EXPECT_NE(with_index.stats.plan_text.find("t_b"), std::string::npos)
      << with_index.stats.plan_text;
  QueryResult r = MustExec("SELECT count(*) FROM t WHERE b = 7");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, WhatIfVirtualIndexLowersCost) {
  MustExec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 3000; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
             std::to_string(i % 500) + ")");
  }
  MustExec("ANALYZE t");
  auto table = db_.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());

  auto base = db_.WhatIfPlan("SELECT a FROM t WHERE b = 7", {});
  ASSERT_TRUE(base.ok());

  catalog::IndexInfo virt;
  virt.id = -1;
  virt.name = "virt_t_b";
  virt.table_id = table->id;
  virt.key_columns = {1};
  virt.is_virtual = true;
  auto with = db_.WhatIfPlan("SELECT a FROM t WHERE b = 7", {virt});
  ASSERT_TRUE(with.ok());
  EXPECT_LT(with->summary.TotalCost(), base->summary.TotalCost());
  ASSERT_EQ(with->virtual_indexes_used.size(), 1u);
  EXPECT_EQ(with->virtual_indexes_used[0], -1);
  // What-if planning must not create anything real.
  EXPECT_FALSE(db_.catalog()->GetIndex("virt_t_b").ok());
}

TEST_F(DatabaseTest, TransactionsCommitAndRollback) {
  MakeProtein();
  auto session = db_.CreateSession();
  ASSERT_TRUE(db_.Execute("BEGIN", session.get()).ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO protein VALUES (1, 'A', 1, 1.0)",
                          session.get())
                  .ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK", session.get()).ok());
  QueryResult r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);

  ASSERT_TRUE(db_.Execute("BEGIN", session.get()).ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO protein VALUES (2, 'B', 1, 1.0)",
                          session.get())
                  .ok());
  ASSERT_TRUE(db_.Execute("COMMIT", session.get()).ok());
  r = MustExec("SELECT count(*) FROM protein");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, DeadlockDetected) {
  MustExec("CREATE TABLE x (v INT)");
  MustExec("CREATE TABLE y (v INT)");
  MustExec("INSERT INTO x VALUES (1)");
  MustExec("INSERT INTO y VALUES (1)");

  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  ASSERT_TRUE(db_.Execute("BEGIN", s1.get()).ok());
  ASSERT_TRUE(db_.Execute("BEGIN", s2.get()).ok());
  ASSERT_TRUE(db_.Execute("UPDATE x SET v = 2", s1.get()).ok());
  ASSERT_TRUE(db_.Execute("UPDATE y SET v = 2", s2.get()).ok());

  // s1 waits on y (held by s2); s2 then requests x -> deadlock.
  std::atomic<bool> s1_done{false};
  Status s1_status;
  std::thread t1([&] {
    auto r = db_.Execute("UPDATE y SET v = 3", s1.get());
    s1_status = r.status();
    s1_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto r2 = db_.Execute("UPDATE x SET v = 3", s2.get());
  t1.join();
  // One of the two must have been aborted as the deadlock victim.
  bool s1_aborted = s1_status.IsAborted();
  bool s2_aborted = !r2.ok() && r2.status().IsAborted();
  EXPECT_TRUE(s1_aborted || s2_aborted);
  EXPECT_GE(db_.lock_manager()->stats().total_deadlocks, 1);
  // Clean up: end both txns.
  db_.Execute("COMMIT", s1.get()).ok();
  db_.Execute("COMMIT", s2.get()).ok();
}

TEST_F(DatabaseTest, TriggersRaiseAlerts) {
  MustExec("CREATE TABLE metrics (sessions INT)");
  MustExec("CREATE TRIGGER too_many AFTER INSERT ON metrics "
           "WHEN sessions >= 100 RAISE 'session limit reached'");
  std::vector<AlertEvent> alerts;
  db_.SetAlertHandler([&](const AlertEvent& e) { alerts.push_back(e); });
  MustExec("INSERT INTO metrics VALUES (50)");
  EXPECT_TRUE(alerts.empty());
  MustExec("INSERT INTO metrics VALUES (120)");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].trigger_name, "too_many");
  EXPECT_EQ(alerts[0].message, "session limit reached");
  EXPECT_EQ(alerts[0].row[0].AsInt(), 120);
}

TEST_F(DatabaseTest, MonitorRecordsStatementPath) {
  MakeProtein();
  MustExec("INSERT INTO protein VALUES (1, 'A', 1, 1.0)");
  MustExec("SELECT nref_id FROM protein WHERE nref_id = 1");
  MustExec("SELECT nref_id FROM protein WHERE nref_id = 1");

  auto statements = db_.monitor()->SnapshotStatements();
  bool found = false;
  for (const auto& s : statements) {
    if (s.text == "SELECT nref_id FROM protein WHERE nref_id = 1") {
      found = true;
      EXPECT_EQ(s.frequency, 2);
    }
  }
  EXPECT_TRUE(found);

  auto workload = db_.monitor()->SnapshotWorkload();
  ASSERT_GE(workload.size(), 3u);
  const auto& last = workload.back();
  EXPECT_GT(last.wallclock_nanos, 0);
  EXPECT_GT(last.monitor_nanos, 0);
  EXPECT_GE(last.estimated_cpu + last.estimated_io, 0);

  auto refs = db_.monitor()->SnapshotReferences();
  EXPECT_FALSE(refs.empty());
  auto table_freq = db_.monitor()->TableFrequencies();
  auto protein = db_.catalog()->GetTable("protein");
  ASSERT_TRUE(protein.ok());
  EXPECT_GE(table_freq[protein->id], 3);
}

TEST_F(DatabaseTest, MonitorDisabledAddsNothing) {
  DatabaseOptions options;
  options.monitor.enabled = false;
  Database off(options);
  ASSERT_TRUE(off.Execute("CREATE TABLE t (v INT)").ok());
  ASSERT_TRUE(off.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(off.Execute("SELECT * FROM t").ok());
  EXPECT_TRUE(off.monitor()->SnapshotStatements().empty());
  EXPECT_TRUE(off.monitor()->SnapshotWorkload().empty());
  EXPECT_EQ(off.monitor()->counters().total_monitor_nanos, 0);
}

TEST_F(DatabaseTest, PlanCacheHitsAndInvalidation) {
  DatabaseOptions options;
  options.plan_cache_capacity = 64;
  Database db(options);
  auto exec = [&](const std::string& sql) {
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  exec("CREATE TABLE t (v INT)");
  exec("INSERT INTO t VALUES (1)");
  exec("INSERT INTO t VALUES (2)");

  const std::string q = "SELECT count(*) FROM t WHERE v > 0";
  exec(q);  // miss: fills the cache
  exec(q);  // hit
  exec(q);  // hit
  auto stats = db.plan_cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_GE(stats.misses, 1);
  EXPECT_GE(stats.entries, 1);

  // Cached plans return fresh data (inserts don't invalidate)...
  exec("INSERT INTO t VALUES (3)");
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);

  // ...but DDL invalidates: the plan must pick up the new index.
  exec("CREATE INDEX t_v ON t (v)");
  for (int i = 0; i < 3000; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  exec("ANALYZE t");
  auto after = db.Execute("SELECT count(*) FROM t WHERE v = 77");
  ASSERT_TRUE(after.ok());
  auto again = db.Execute("SELECT count(*) FROM t WHERE v = 77");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->stats.used_indexes.empty());
  // Re-running the earlier cached statement drops its stale entry.
  exec(q);
  EXPECT_GT(db.plan_cache_stats().invalidations, 0);
}

TEST_F(DatabaseTest, PlanCacheMonitoredLikeNormalStatements) {
  DatabaseOptions options;
  options.plan_cache_capacity = 16;
  Database db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (v INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Execute("SELECT v FROM t").ok());
  }
  // Frequency counts cached executions too.
  bool found = false;
  for (const auto& s : db.monitor()->SnapshotStatements()) {
    if (s.text == "SELECT v FROM t") {
      found = true;
      EXPECT_EQ(s.frequency, 4);
    }
  }
  EXPECT_TRUE(found);
}

// Two joined tables with a selective secondary index, so SELECTs over
// them reference tables, attributes and indexes, use an index and plan to
// more than one line.
void MakeIndexedJoin(Database* db) {
  auto exec = [&](const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  exec("CREATE TABLE t (a INT, b INT)");
  exec("CREATE TABLE u (b INT, name TEXT)");
  for (int i = 0; i < 1000; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
         std::to_string(i / 2) + ")");
  }
  for (int i = 0; i < 50; ++i) {
    exec("INSERT INTO u VALUES (" + std::to_string(i) + ", 'n" +
         std::to_string(i) + "')");
  }
  exec("CREATE INDEX t_b ON t (b)");
  exec("ANALYZE t");
  exec("ANALYZE u");
}

constexpr const char* kJoinSql =
    "SELECT t.a, u.name FROM t JOIN u ON t.b = u.b WHERE t.b = 7";

/// One committed execution as the monitor saw it: its workload record
/// and the (type, object, ordinal) references logged with it.
struct MonitoredExecution {
  monitor::WorkloadRecord record;
  std::vector<std::tuple<int, monitor::ObjectId, int>> refs;
};

/// Every monitored execution of `sql`, oldest first. A commit claims one
/// seq block (workload record, then its references), so a reference
/// belongs to the closest workload record below it.
std::vector<MonitoredExecution> ExecutionsOf(Database* db,
                                             const std::string& sql) {
  const uint64_t hash = HashStatement(sql);
  std::vector<monitor::WorkloadRecord> all = db->monitor()->SnapshotWorkload();
  std::sort(all.begin(), all.end(),
            [](const auto& x, const auto& y) { return x.seq < y.seq; });
  std::vector<monitor::ReferenceRecord> refs =
      db->monitor()->SnapshotReferences();
  std::vector<MonitoredExecution> out;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].hash != hash) continue;
    MonitoredExecution e;
    e.record = all[i];
    int64_t next = i + 1 < all.size() ? all[i + 1].seq
                                      : std::numeric_limits<int64_t>::max();
    for (const auto& r : refs) {
      if (r.seq > all[i].seq && r.seq < next) {
        e.refs.emplace_back(static_cast<int>(r.type), r.object_id, r.ordinal);
      }
    }
    std::sort(e.refs.begin(), e.refs.end());
    out.push_back(std::move(e));
  }
  return out;
}

TEST_F(DatabaseTest, SelectMonitoredAlikeWithCacheOffMissAndHit) {
  Database uncached{DatabaseOptions{}};
  DatabaseOptions cache_on;
  cache_on.plan_cache_capacity = 16;
  Database cached(cache_on);
  MakeIndexedJoin(&uncached);
  MakeIndexedJoin(&cached);

  // Same statements on both: with the cache on, a miss (prepares, stores
  // the plan with its template), a hit (replays the sensors, commits with
  // the memoized template) and a miss on another text of the same shape.
  // Then UPDATE and DELETE, which take the Dispatch path either way.
  const std::string other_literal =
      "SELECT t.a, u.name FROM t JOIN u ON t.b = u.b WHERE t.b = 8";
  const std::string update = "UPDATE u SET name = 'z' WHERE b = -3";
  const std::string del = "DELETE FROM t WHERE a = -5";
  for (Database* db : {&uncached, &cached}) {
    for (const std::string& sql :
         {std::string(kJoinSql), std::string(kJoinSql), other_literal, update,
          del}) {
      ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    }
  }
  ASSERT_EQ(cached.plan_cache_stats().hits, 1);

  auto off = ExecutionsOf(&uncached, kJoinSql);
  auto on = ExecutionsOf(&cached, kJoinSql);
  ASSERT_EQ(off.size(), 2u);
  ASSERT_EQ(on.size(), 2u);
  const MonitoredExecution& miss = on[0];
  const MonitoredExecution& hit = on[1];

  ASSERT_FALSE(off[0].record.used_indexes.empty());
  ASSERT_FALSE(off[0].refs.empty());
  for (const MonitoredExecution* e : {&miss, &hit}) {
    EXPECT_EQ(e->refs, off[0].refs);
    EXPECT_DOUBLE_EQ(e->record.estimated_cpu, off[0].record.estimated_cpu);
    EXPECT_DOUBLE_EQ(e->record.estimated_io, off[0].record.estimated_io);
    EXPECT_EQ(e->record.used_indexes, off[0].record.used_indexes);
  }
  // Optimizer time is measured whenever the optimizer runs; only the hit
  // skips it and reports time and I/O as 0.
  EXPECT_GT(off[0].record.optimizer_cpu_nanos, 0);
  EXPECT_GT(miss.record.optimizer_cpu_nanos, 0);
  EXPECT_EQ(hit.record.optimizer_cpu_nanos, 0);
  EXPECT_EQ(hit.record.optimizer_disk_io, 0);

  // Every path lands on the same template row (what imp_templates shows),
  // keyed by the normalizer's fingerprint of the text.
  auto template_of = [](Database* db, const std::string& sql) {
    const sql::NormalizedStatement want = sql::NormalizeStatement(sql);
    for (const monitor::TemplateRecord& t :
         db->monitor()->SnapshotTemplates()) {
      if (t.fingerprint == want.fingerprint) {
        EXPECT_EQ(t.template_text, want.template_text);
        return t;
      }
    }
    ADD_FAILURE() << "no template row for " << sql;
    return monitor::TemplateRecord{};
  };
  for (const auto& [sql, executions] :
       {std::pair<std::string, int64_t>{kJoinSql, 3}, {update, 1}, {del, 1}}) {
    monitor::TemplateRecord a = template_of(&uncached, sql);
    monitor::TemplateRecord b = template_of(&cached, sql);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << sql;
    EXPECT_EQ(a.template_text, b.template_text) << sql;
    EXPECT_EQ(a.executions, executions) << sql;
    EXPECT_EQ(b.executions, executions) << sql;
    EXPECT_EQ(a.sampled_count, b.sampled_count) << sql;
    EXPECT_EQ(b.sampled_count, executions) << sql;
  }
}

TEST_F(DatabaseTest, PlanCachedWhileUnmonitoredGetsItsTemplateOnAHit) {
  // Unmonitored executions never normalize, so a plan cached with the
  // monitor off carries an empty template memo; the first monitored hit
  // fills it, and every hit lands on the template a miss would have.
  DatabaseOptions cache_on;
  cache_on.plan_cache_capacity = 16;
  Database db(cache_on);
  MakeIndexedJoin(&db);
  db.monitor()->set_enabled(false);
  ASSERT_TRUE(db.Execute(kJoinSql).ok());
  db.monitor()->set_enabled(true);
  ASSERT_TRUE(db.Execute(kJoinSql).ok());
  ASSERT_TRUE(db.Execute(kJoinSql).ok());
  EXPECT_EQ(db.plan_cache_stats().hits, 2);

  const sql::NormalizedStatement want = sql::NormalizeStatement(kJoinSql);
  int64_t executions = -1;
  for (const monitor::TemplateRecord& t : db.monitor()->SnapshotTemplates()) {
    if (t.fingerprint != want.fingerprint) continue;
    EXPECT_EQ(t.template_text, want.template_text);
    executions = t.executions;
  }
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(ExecutionsOf(&db, kJoinSql).size(), 2u);
}

TEST_F(DatabaseTest, ExplainWhatIfAndExecutionShareOnePlan) {
  MakeIndexedJoin(&db_);
  QueryResult explain = MustExec(std::string("EXPLAIN ") + kJoinSql);
  auto what_if = db_.WhatIfPlan(kJoinSql, {});
  ASSERT_TRUE(what_if.ok()) << what_if.status();
  QueryResult executed = MustExec(kJoinSql);

  auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  };
  std::vector<std::string> explained;
  for (const Row& row : explain.rows) explained.push_back(row[0].AsText());
  ASSERT_GT(explained.size(), 1u);
  EXPECT_EQ(explained, lines(what_if->summary.plan_text));
  EXPECT_EQ(explained, lines(executed.stats.plan_text));
  EXPECT_DOUBLE_EQ(explain.stats.estimated_cost,
                   what_if->summary.TotalCost());
  EXPECT_EQ(explain.stats.used_indexes, executed.stats.used_indexes);
}

TEST_F(DatabaseTest, ExplainRecordHasNoRefsOrEstimates) {
  for (size_t capacity : {size_t{0}, size_t{16}}) {
    DatabaseOptions options;
    options.plan_cache_capacity = capacity;
    Database db(options);
    MakeIndexedJoin(&db);
    const std::string explain = std::string("EXPLAIN ") + kJoinSql;
    ASSERT_TRUE(db.Execute(explain).ok());
    ASSERT_TRUE(db.Execute(explain).ok());

    auto runs = ExecutionsOf(&db, explain);
    ASSERT_EQ(runs.size(), 2u) << "capacity " << capacity;
    for (const MonitoredExecution& e : runs) {
      EXPECT_TRUE(e.refs.empty()) << "capacity " << capacity;
      EXPECT_EQ(e.record.estimated_cpu, 0);
      EXPECT_EQ(e.record.estimated_io, 0);
      EXPECT_TRUE(e.record.used_indexes.empty());
      EXPECT_EQ(e.record.optimizer_cpu_nanos, 0);
      EXPECT_GT(e.record.wallclock_nanos, 0);
    }
  }
}

TEST_F(DatabaseTest, ParseErrorsDoNotCrash) {
  EXPECT_FALSE(db_.Execute("SELEKT * FROM nowhere").ok());
  EXPECT_FALSE(db_.Execute("SELECT FROM").ok());
  EXPECT_FALSE(db_.Execute("").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM missing_table").ok());
  MakeProtein();
  EXPECT_FALSE(db_.Execute("SELECT missing_col FROM protein").ok());
}

TEST_F(DatabaseTest, InQueryAndArithmetic) {
  MustExec("CREATE TABLE t (v INT)");
  for (int i = 1; i <= 10; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  QueryResult r = MustExec("SELECT count(*) FROM t WHERE v IN (2, 4, 6)");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  r = MustExec("SELECT v * 2 + 1 FROM t WHERE v = 5");
  EXPECT_EQ(r.rows[0][0].AsInt(), 11);
  r = MustExec("SELECT count(*) FROM t WHERE v % 2 = 0");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

}  // namespace
}  // namespace imon::engine
