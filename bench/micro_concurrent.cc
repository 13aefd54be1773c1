// Commit-path scalability microbenchmark for the sharded monitor.
//
// Two phases, both driving 1/2/4/8 committer threads (distinct session
// ids, so they hash to distinct shards) through the full sensor cycle:
//
// 1. Pure-CPU commits: measures raw per-commit cost. Needs >= 2 cores to
//    separate the configurations — on a single-core host the CPU itself
//    serializes the threads and every curve is flat.
// 2. Stalled commits (the headline): each commit blocks for --stall-ns
//    inside the shard-lock critical section (MonitorConfig::
//    commit_stall_nanos), modelling a commit path that blocks. With
//    --shards=1 every session funnels through one lock and the stalls
//    serialize end to end; with shards >= threads the stalls overlap, so
//    throughput scales with the thread count on any host, single-core
//    included. This is the lock-structure property the sharding exists
//    to provide.
//
// Usage:
//   micro_concurrent [--shards=1,4] [--threads=1,2,4,8]
//                    [--commits=200000] [--stall-commits=3000]
//                    [--stall-ns=20000]
//
// Emits BENCH_micro_concurrent.json with one metric per (shards,
// threads) cell in both phases plus the headline 4-thread speedup
// (stalled phase, widest vs. narrowest shard setting).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "monitor/monitor.h"
#include "sql/lexer.h"

namespace imon {
namespace {

std::vector<int> ParseIntList(const char* s) {
  std::vector<int> out;
  int v = 0;
  bool have = false;
  for (; ; ++s) {
    if (*s >= '0' && *s <= '9') {
      v = v * 10 + (*s - '0');
      have = true;
    } else {
      if (have) out.push_back(v);
      v = 0;
      have = false;
      if (*s == '\0') break;
    }
  }
  return out;
}

/// A statement text and the tokens the parser would hand the monitor.
struct Statement {
  std::string text;
  std::vector<sql::Token> tokens;
};

/// The 512 statement texts the committers cycle through, tokenized once
/// up front (the engine's parser does that before the monitor sees them).
const std::vector<Statement>& Statements() {
  static const std::vector<Statement> statements = [] {
    std::vector<Statement> out;
    for (int i = 0; i < 512; ++i) {
      Statement s;
      s.text = "SELECT v FROM t WHERE v = " + std::to_string(i);
      s.tokens = sql::Tokenize(s.text).TakeValue();
      out.push_back(std::move(s));
    }
    return out;
  }();
  return statements;
}

/// One full sensor cycle per commit, text varied so the statement
/// registry churns like a live workload.
void CommitterLoop(monitor::Monitor* m, int64_t session_id, int64_t commits,
                   const std::atomic<bool>* go) {
  const std::vector<Statement>& statements = Statements();
  while (!go->load(std::memory_order_acquire)) {
  }
  for (int64_t i = 0; i < commits; ++i) {
    const Statement& s = statements[i % statements.size()];
    monitor::QueryTrace trace;
    m->OnQueryStart(&trace, session_id);
    m->OnParseComplete(&trace, s.text, s.tokens);
    m->OnBindComplete(&trace, {1}, {{1, 0}}, {});
    m->OnOptimizeComplete(&trace, 1.0, 2.0, {}, 500, 0);
    m->OnExecuteComplete(&trace, 1000, 0, 3.0, 1, 1);
    m->Commit(&trace);
  }
}

/// Commits/second for `threads` concurrent committers on a monitor with
/// `shards` commit shards, each commit blocking `stall_nanos` inside the
/// shard lock (0 = pure CPU).
double MeasureThroughput(size_t shards, int threads, int64_t commits,
                         int64_t stall_nanos) {
  monitor::MonitorConfig config;
  config.shards = shards;
  config.stats_sample_every = 0;
  config.commit_stall_nanos = stall_nanos;
  monitor::Monitor m(config, RealClock::Instance());

  // Session ids picked so thread t lands on shard t%shards (replicates
  // the monitor's shard hash), spreading committers evenly.
  std::vector<int64_t> session_ids;
  int64_t next_id = 1;
  for (int t = 0; t < threads; ++t) {
    size_t want = static_cast<size_t>(t) % m.shard_count();
    while ((HashCombine(0, static_cast<uint64_t>(next_id)) &
            (m.shard_count() - 1)) != want) {
      ++next_id;
    }
    session_ids.push_back(next_id++);
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(CommitterLoop, &m, session_ids[t], commits, &go);
  }
  int64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  double secs = static_cast<double>(MonotonicNanos() - start) / 1e9;

  int64_t expected = static_cast<int64_t>(threads) * commits;
  if (m.statements_executed() != expected) {
    std::fprintf(stderr, "micro_concurrent: lost commits (%lld != %lld)\n",
                 static_cast<long long>(m.statements_executed()),
                 static_cast<long long>(expected));
    std::exit(1);
  }
  return static_cast<double>(expected) / secs;
}

/// Runs one phase over the (shards x threads) grid; returns
/// throughput[shards][threads] and records one metric per cell.
std::map<int, std::map<int, double>> RunGrid(
    const std::vector<int>& shard_settings,
    const std::vector<int>& thread_counts, int64_t commits,
    int64_t stall_nanos, const char* metric_prefix,
    bench::JsonWriter* json) {
  std::map<int, std::map<int, double>> throughput;
  std::printf("%8s %8s %16s %12s\n", "shards", "threads", "commits/sec",
              "vs 1 thread");
  for (int shards : shard_settings) {
    double base = 0;
    for (int threads : thread_counts) {
      double tput = MeasureThroughput(static_cast<size_t>(shards), threads,
                                      commits, stall_nanos);
      throughput[shards][threads] = tput;
      if (base == 0) base = tput;
      std::printf("%8d %8d %16.0f %11.2fx\n", shards, threads, tput,
                  tput / base);
      json->Metric(std::string(metric_prefix) + "/shards=" +
                       std::to_string(shards) +
                       "/threads=" + std::to_string(threads),
                  tput, "1/s");
    }
  }
  return throughput;
}

/// 4-thread speedup of the widest shard setting over the narrowest; 0 if
/// the grid doesn't cover it.
double Speedup4(const std::vector<int>& shard_settings,
                std::map<int, std::map<int, double>>& throughput) {
  int flat = shard_settings.front();
  int wide = shard_settings.back();
  if (wide == flat || throughput[flat].count(4) == 0 ||
      throughput[wide].count(4) == 0) {
    return 0;
  }
  return throughput[wide][4] / throughput[flat][4];
}

/// Sanity phase: the engine's statement path (per-thread sessions,
/// striped plan cache, sharded commit) under concurrent Execute(sql).
void EngineSmoke(int threads, int64_t statements_per_thread) {
  engine::DatabaseOptions options;
  options.monitor.stats_sample_every = 0;
  options.plan_cache_capacity = 64;
  engine::Database db(options);
  bench::MustExec(&db, "CREATE TABLE t (v INT)");
  bench::MustExec(&db, "INSERT INTO t VALUES (1)");

  std::vector<std::thread> workers;
  std::atomic<int64_t> failures{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&db, &failures, statements_per_thread] {
      for (int64_t i = 0; i < statements_per_thread; ++i) {
        if (!db.Execute("SELECT count(*) FROM t WHERE v > 0").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  int64_t total = static_cast<int64_t>(threads) * statements_per_thread;
  if (failures.load() != 0 ||
      db.monitor()->statements_executed() <
          total + 2 /* DDL + insert */) {
    std::fprintf(stderr, "micro_concurrent: engine smoke failed\n");
    std::exit(1);
  }
  std::printf("engine smoke: %d threads x %lld Execute(sql) ok "
              "(plan cache hits %lld)\n",
              threads, static_cast<long long>(statements_per_thread),
              static_cast<long long>(db.plan_cache_stats().hits));
}

}  // namespace
}  // namespace imon

int main(int argc, char** argv) {
  using imon::bench::Scaled;
  std::vector<int> shard_settings = {1, 4};
  std::vector<int> thread_counts = {1, 2, 4, 8};
  int64_t commits = Scaled(200000);
  int64_t stall_commits = Scaled(3000);
  int64_t stall_nanos = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shard_settings = imon::ParseIntList(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = imon::ParseIntList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--commits=", 10) == 0) {
      commits = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--stall-commits=", 16) == 0) {
      stall_commits = std::atoll(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--stall-ns=", 11) == 0) {
      stall_nanos = std::atoll(argv[i] + 11);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 1;
    }
  }
  if (shard_settings.empty() || thread_counts.empty() || commits <= 0) {
    std::fprintf(stderr, "nothing to measure\n");
    return 1;
  }

  imon::bench::PrintHeader(
      "micro_concurrent",
      "monitored-commit throughput vs. shard count (tentpole check)");
  imon::bench::JsonWriter json("micro_concurrent");
  unsigned cores = std::thread::hardware_concurrency();
  json.Metric("hardware_concurrency", cores);

  std::printf("\n-- phase 1: pure-CPU commits (%lld per thread) --\n",
              static_cast<long long>(commits));
  if (cores < 2) {
    std::printf("   [note: %u core(s) — the CPU serializes this phase, "
                "curves will coincide]\n", cores);
  }
  auto cpu = imon::RunGrid(shard_settings, thread_counts, commits, 0,
                           "commits_per_sec", &json);
  double cpu_speedup = imon::Speedup4(shard_settings, cpu);
  if (cpu_speedup > 0) json.Metric("cpu_speedup_4threads", cpu_speedup, "x");

  std::printf("\n-- phase 2: stalled commits (%lld per thread, %lld ns "
              "blocked inside the shard lock) --\n",
              static_cast<long long>(stall_commits),
              static_cast<long long>(stall_nanos));
  auto stalled =
      imon::RunGrid(shard_settings, thread_counts, stall_commits, stall_nanos,
                    "stalled_commits_per_sec", &json);

  // Headline: sharded vs. single-shard at 4 threads (the acceptance bar
  // is >= 2x). With --shards=1 the blocked lock serializes all four
  // committers; with shards >= 4 their stalls overlap.
  double speedup = imon::Speedup4(shard_settings, stalled);
  if (speedup > 0) {
    std::printf("\n4-thread speedup, %d shards over %d shard(s): %.2fx\n",
                shard_settings.back(), shard_settings.front(), speedup);
    json.Metric("speedup_4threads", speedup, "x");
  }

  imon::EngineSmoke(4, Scaled(500));
  json.Write();
  return 0;
}
