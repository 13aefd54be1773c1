// Vectorized-executor microbenchmark on a 100k-row scan + filter +
// aggregate. batched_rows_per_sec is the engine end to end (scan,
// compiled filters over 1024-row batches, aggregation). speedup_vs_scalar
// compares the two expression evaluators on the same query with
// everything else held equal: the query is bound once, the table's rows
// are read once (both untimed), and then the tree-walking Eval and the
// compiled ExprPrograms (FilterBatch over 1024-row batches + Run) evaluate
// the WHERE conjuncts and aggregate arguments into identical
// accumulators. Emits BENCH_exec.json; tier1.sh gates on it against the
// committed baseline (>15% regression fails).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "engine/database.h"
#include "exec/expr_program.h"
#include "exec/expression_eval.h"
#include "optimizer/binder.h"
#include "sql/parser.h"

namespace imon::bench {
namespace {

constexpr int kRowsBase = 100000;
constexpr int kRepeats = 5;

engine::DatabaseOptions Opts(size_t batch_size) {
  engine::DatabaseOptions o;
  o.exec_batch_size = batch_size;
  o.buffer_pool_pages = 16384;
  return o;
}

void Populate(engine::Database* db, int rows) {
  MustExec(db, "CREATE TABLE m (id INT, v INT, w DOUBLE, tag TEXT)");
  std::string sql;
  for (int i = 0; i < rows; ++i) {
    sql += sql.empty() ? "INSERT INTO m VALUES " : ", ";
    sql += "(" + std::to_string(i) + ", " + std::to_string(i % 97) + ", " +
           std::to_string((i % 1000)) + ".5, 'tag" + std::to_string(i % 13) +
           "')";
    if (i % 512 == 511 || i == rows - 1) {
      MustExec(db, sql);
      sql.clear();
    }
  }
}

// Filter + aggregate with real expression weight: the compiled path's
// advantage is per-operator (no tree-walk, no per-node allocation), so
// the benchmark exercises multi-operator predicates and arithmetic
// aggregate arguments, not bare column references.
const char* const kQuery =
    "SELECT count(*), sum(v * 2 + 1), avg(w * 0.5 + v), min(w - v), "
    "max(v * v) FROM m "
    "WHERE (v * 13 + 7) % 31 > 23 AND (v % 7 <> 3 OR w > 500.0) "
    "AND w * 0.25 + v * 2 > 30.0 AND v < 90";

/// Best-of-kRepeats wall-clock seconds for the scan+filter+aggregate.
double BestTime(engine::Database* db) {
  MustExec(db, kQuery);  // warm the buffer pool
  double best = 1e30;
  for (int i = 0; i < kRepeats; ++i) {
    int64_t start = MonotonicNanos();
    MustExec(db, kQuery);
    double secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
    best = std::min(best, secs);
  }
  return best;
}

[[noreturn]] void Fail(const Status& status) {
  std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r) {
  if (!r.ok()) Fail(r.status());
  return r.TakeValue();
}

void MustOk(const Status& status) {
  if (!status.ok()) Fail(status);
}

/// Per-aggregate accumulators shared by both evaluators, so they differ
/// only in how expressions are evaluated. COUNT(*) folds a constant 1.
struct Fold {
  std::vector<int64_t> count;
  std::vector<double> sum;
  std::vector<Value> min, max;

  explicit Fold(size_t n) : count(n, 0), sum(n, 0), min(n), max(n) {}

  void Add(size_t a, const Value& v) {
    if (v.is_null()) return;
    if (count[a] == 0 || v.Compare(min[a]) < 0) min[a] = v;
    if (count[a] == 0 || v.Compare(max[a]) > 0) max[a] = v;
    sum[a] += v.AsDouble();
    ++count[a];
  }

  std::string ToString() const {
    std::string out;
    for (size_t a = 0; a < count.size(); ++a) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "[%lld %a %s %s]",
                    static_cast<long long>(count[a]), sum[a],
                    min[a].ToString().c_str(), max[a].ToString().c_str());
      out += buf;
    }
    return out;
  }
};

/// kQuery bound once against the engine's catalog and compiled once,
/// plus the table's rows pre-gathered into 1024-row batches.
struct Reference {
  sql::StatementPtr stmt;
  optimizer::BoundSelect bound;
  optimizer::OutputLayout layout;
  std::vector<exec::ExprProgram> filters;
  std::vector<std::optional<exec::ExprProgram>> args;
  std::vector<exec::RowBatch> batches;
};

Reference BuildReference(engine::Database* db, const std::vector<Row>& rows) {
  Reference ref;
  ref.stmt = Must(sql::Parse(kQuery));
  optimizer::Binder binder(db->catalog());
  ref.bound =
      Must(binder.BindSelect(static_cast<sql::SelectStmt*>(ref.stmt.get())));
  ref.layout = optimizer::OutputLayout::ForTable(
      0, 1, static_cast<int>(ref.bound.tables[0].info.columns.size()));
  for (const sql::Expr* c : ref.bound.conjuncts) {
    ref.filters.push_back(Must(exec::ExprProgram::Compile(*c, ref.layout)));
  }
  for (const auto& agg : ref.bound.aggregates) {
    ref.args.emplace_back();
    if (agg.arg != nullptr) {
      ref.args.back() = Must(exec::ExprProgram::Compile(*agg.arg, ref.layout));
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i % exec::kDefaultBatchSize == 0) ref.batches.emplace_back();
    Row copy = rows[i];
    ref.batches.back().PushSwap(&copy);
  }
  return ref;
}

/// Tuple-at-a-time tree walking: EvalPredicate per conjunct, Eval per
/// aggregate argument.
Fold RunTreeWalking(const Reference& ref, const std::vector<Row>& rows) {
  const auto& aggs = ref.bound.aggregates;
  Fold fold(aggs.size());
  for (const Row& row : rows) {
    bool pass = true;
    for (const sql::Expr* c : ref.bound.conjuncts) {
      if (!Must(exec::EvalPredicate(*c, ref.layout, row))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    for (size_t a = 0; a < aggs.size(); ++a) {
      fold.Add(a, aggs[a].arg == nullptr
                      ? Value::Int(1)
                      : Must(exec::Eval(*aggs[a].arg, ref.layout, row)));
    }
  }
  return fold;
}

/// Compiled programs: FilterBatch per conjunct over each batch, then Run
/// per aggregate argument on the survivors.
Fold RunCompiled(Reference* ref) {
  Fold fold(ref->args.size());
  exec::EvalScratch scratch;
  Value v;
  for (exec::RowBatch& batch : ref->batches) {
    batch.sel.resize(batch.filled);
    std::iota(batch.sel.begin(), batch.sel.end(), 0u);
    for (const exec::ExprProgram& f : ref->filters) {
      if (batch.sel.empty()) break;
      MustOk(f.FilterBatch(&batch, &scratch));
    }
    for (uint32_t idx : batch.sel) {
      for (size_t a = 0; a < ref->args.size(); ++a) {
        if (ref->args[a].has_value()) {
          MustOk(ref->args[a]->Run(batch.rows[idx], nullptr, &scratch, &v));
        } else {
          v = Value::Int(1);
        }
        fold.Add(a, v);
      }
    }
  }
  return fold;
}

int Main() {
  const int rows = static_cast<int>(Scaled(kRowsBase));
  PrintHeader("micro_exec_batch",
              "compiled expressions vs tree-walking Eval; engine batches");

  engine::Database batched{Opts(1024)};
  Populate(&batched, rows);
  double batched_secs = BestTime(&batched);

  engine::Database small{Opts(64)};
  Populate(&small, rows);
  double small_secs = BestTime(&small);

  // Evaluator comparison over the same in-memory rows, alternating the
  // two sides so both see the same machine state.
  const std::vector<Row> table = MustExec(&batched, "SELECT * FROM m").rows;
  Reference ref = BuildReference(&batched, table);
  const std::string want = RunTreeWalking(ref, table).ToString();
  if (RunCompiled(&ref).ToString() != want) {
    std::fprintf(stderr, "bench: compiled and tree-walking results differ\n");
    return 1;
  }
  double scalar_secs = 1e30;
  double compiled_secs = 1e30;
  for (int i = 0; i < kRepeats; ++i) {
    int64_t start = MonotonicNanos();
    Fold walked = RunTreeWalking(ref, table);
    int64_t mid = MonotonicNanos();
    Fold compiled = RunCompiled(&ref);
    int64_t end = MonotonicNanos();
    if (walked.ToString() != want || compiled.ToString() != want) {
      std::fprintf(stderr, "bench: reference results changed between runs\n");
      return 1;
    }
    scalar_secs = std::min(scalar_secs, static_cast<double>(mid - start) / 1e9);
    compiled_secs =
        std::min(compiled_secs, static_cast<double>(end - mid) / 1e9);
  }

  double scalar_rps = rows / scalar_secs;
  double compiled_rps = rows / compiled_secs;
  double batched_rps = rows / batched_secs;
  double speedup = scalar_secs / compiled_secs;

  std::printf("%-30s %12s %14s\n", "configuration", "secs", "rows/s");
  std::printf("%-30s %12.4f %14.0f\n", "tree-walking Eval (reference)",
              scalar_secs, scalar_rps);
  std::printf("%-30s %12.4f %14.0f\n", "compiled programs (reference)",
              compiled_secs, compiled_rps);
  std::printf("%-30s %12.4f %14.0f\n", "engine, batch 1024", batched_secs,
              batched_rps);
  std::printf("%-30s %12.4f %14.0f\n", "engine, batch 64", small_secs,
              rows / small_secs);
  std::printf("speedup (compiled vs tree-walking): %.2fx\n", speedup);

  JsonWriter json("exec");
  json.Metric("rows", rows, "rows");
  json.Metric("scalar_rows_per_sec", scalar_rps, "rows/s");
  json.Metric("compiled_rows_per_sec", compiled_rps, "rows/s");
  json.Metric("batched_rows_per_sec", batched_rps, "rows/s");
  json.Metric("batch64_rows_per_sec", rows / small_secs, "rows/s");
  json.Metric("speedup_vs_scalar", speedup, "x");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace imon::bench

int main() { return imon::bench::Main(); }
