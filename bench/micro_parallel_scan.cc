// Morsel-driven parallel scan microbenchmark: the same 100k-row
// scan + filter + aggregate mix and an aggregating join, swept across
// worker counts {1, 2, 4, 8} on the sharded buffer pool, plus the
// same scan mix over BTREE (leaf morsels) and HASH (bucket morsels)
// structures at half scale. Emits
// BENCH_parallel.json; tier1.sh gates on it against the committed
// baseline (>15% regression fails). Speedups are hardware-relative --
// on a single-core box every worker count collapses to ~1x, so the
// gate compares absolute throughput to the baseline recorded on the
// same machine, not the speedup to an ideal.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "engine/database.h"

namespace imon::bench {
namespace {

constexpr int kRowsBase = 100000;
constexpr int kDimRows = 97;  // one row per distinct m.v
constexpr int kRepeats = 3;

engine::DatabaseOptions Opts(size_t workers) {
  engine::DatabaseOptions o;
  o.exec_workers = workers;
  o.buffer_pool_pages = 8192;
  return o;
}

void Populate(engine::Database* db, int rows) {
  MustExec(db, "CREATE TABLE m (id INT, v INT, w DOUBLE, tag TEXT)");
  std::string sql;
  for (int i = 0; i < rows; ++i) {
    sql += sql.empty() ? "INSERT INTO m VALUES " : ", ";
    sql += "(";
    sql += std::to_string(i);
    sql += ", ";
    sql += std::to_string(i % 97);
    sql += ", ";
    sql += std::to_string(i % 1000);
    sql += ".5, 'tag";
    sql += std::to_string(i % 13);
    sql += "')";
    if (i % 512 == 511 || i == rows - 1) {
      MustExec(db, sql);
      sql.clear();
    }
  }
  MustExec(db, "CREATE TABLE d (v INT, cat INT)");
  sql.clear();
  for (int i = 0; i < kDimRows; ++i) {
    sql += sql.empty() ? "INSERT INTO d VALUES " : ", ";
    sql += "(";
    sql += std::to_string(i);
    sql += ", ";
    sql += std::to_string(i % 10);
    sql += ")";
  }
  MustExec(db, sql);
}

// Scan mix: multi-operator predicate + arithmetic aggregate arguments,
// so each morsel carries real per-row expression weight.
const char* const kScanQuery =
    "SELECT count(*), sum(v * 2 + 1), avg(w * 0.5 + v), min(w - v), "
    "max(v * v) FROM m "
    "WHERE (v * 13 + 7) % 31 > 23 AND (v % 7 <> 3 OR w > 500.0) "
    "AND w * 0.25 + v * 2 > 30.0 AND v < 90";

// Join mix: the fact-side scan is morselized; the dimension fits in one
// page so the join cost is dominated by the parallel probe feed.
const char* const kJoinQuery =
    "SELECT count(*), sum(m.w) FROM m JOIN d ON m.v = d.v "
    "WHERE d.cat < 7 AND m.v < 90";

double BestTime(engine::Database* db, const char* query) {
  MustExec(db, query);  // warm the buffer pool
  double best = 1e30;
  for (int i = 0; i < kRepeats; ++i) {
    int64_t start = MonotonicNanos();
    MustExec(db, query);
    double secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
    best = std::min(best, secs);
  }
  return best;
}

int Main() {
  const int rows = static_cast<int>(Scaled(kRowsBase));
  PrintHeader("micro_parallel_scan",
              "morsel-driven scans across worker counts");

  const size_t worker_counts[] = {1, 2, 4, 8};
  std::vector<double> scan_rps;
  std::vector<double> join_rps;

  std::printf("%-10s %12s %14s %12s %14s\n", "workers", "scan secs",
              "scan rows/s", "join secs", "join rows/s");
  for (size_t workers : worker_counts) {
    // One database per configuration, scoped so peak memory stays at a
    // single buffer pool regardless of how many counts are swept.
    engine::Database db{Opts(workers)};
    Populate(&db, rows);
    double scan_secs = BestTime(&db, kScanQuery);
    double join_secs = BestTime(&db, kJoinQuery);
    scan_rps.push_back(rows / scan_secs);
    join_rps.push_back(rows / join_secs);
    std::printf("%-10zu %12.4f %14.0f %12.4f %14.0f\n", workers, scan_secs,
                scan_rps.back(), join_secs, join_rps.back());
  }

  double scan_speedup = scan_rps[2] / scan_rps[0];
  double join_speedup = join_rps[2] / join_rps[0];
  std::printf("speedup at 4 workers: scan %.2fx, join %.2fx\n", scan_speedup,
              join_speedup);

  // Non-heap morsel sources: the same scan mix after MODIFY ... TO
  // BTREE (leaf-page morsels) and HASH (bucket morsels), at half scale
  // so the structure rebuilds stay cheap. Recorded, not gated — the
  // w1 heap figures above are the regression signal.
  const int srows = rows / 2;
  std::vector<double> structure_rps;  // btree w1, btree w4, hash w1, hash w4
  std::printf("%-16s %12s %14s\n", "structure", "scan secs", "scan rows/s");
  for (const char* structure : {"BTREE", "HASH"}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      engine::Database db{Opts(workers)};
      Populate(&db, srows);
      MustExec(&db, std::string("MODIFY m TO ") + structure);
      double secs = BestTime(&db, kScanQuery);
      structure_rps.push_back(srows / secs);
      std::printf("%-8s w%-7zu %12.4f %14.0f\n", structure, workers, secs,
                  structure_rps.back());
    }
  }

  JsonWriter json("parallel");
  json.Metric("rows", rows, "rows");
  for (size_t i = 0; i < std::size(worker_counts); ++i) {
    std::string w = std::to_string(worker_counts[i]);
    json.Metric("scan_w" + w + "_rows_per_sec", scan_rps[i], "rows/s");
    json.Metric("join_w" + w + "_rows_per_sec", join_rps[i], "rows/s");
  }
  json.Metric("scan_speedup_w4", scan_speedup, "x");
  json.Metric("join_speedup_w4", join_speedup, "x");
  json.Metric("btree_scan_w1_rows_per_sec", structure_rps[0], "rows/s");
  json.Metric("btree_scan_w4_rows_per_sec", structure_rps[1], "rows/s");
  json.Metric("hash_scan_w1_rows_per_sec", structure_rps[2], "rows/s");
  json.Metric("hash_scan_w4_rows_per_sec", structure_rps[3], "rows/s");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace imon::bench

int main() { return imon::bench::Main(); }
