// point_embedded: the paper's "1m test" -- one thread running uniform-key
// primary-key point selects through Database::Execute, plan cache off
// (the paper's prototype), no daemon. 8 000 proteins (~630 pages) sit in
// an 8 192-page pool, so no statement misses the pool.
//
// The statement stream is cut into blocks of kBlock statements; each
// block runs twice back to back, once with the monitor's sensors on and
// once with them off (which side goes first alternates), so
// monitor_ratio compares identical work. Latency and throughput are read
// from the monitored blocks -- the monitor is on in the deployed
// configuration -- each block's value read over the blocks at the quiet
// end. The thread moves to the next CPU every kPairsPerCpu pairs.
//
// Set-ups (open, IMA registration, NREF load) are spread over the run,
// each on the next CPU, between block pairs.
//
// Traced mode keeps the monitor on and pairs traced with untraced blocks
// instead; trace_overhead is their paired ratio.

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "ima/ima.h"

namespace perfbench {
namespace {

using imon::engine::Database;

constexpr int kBlock = 1000;
constexpr int kWarmupBlocks = 4;
constexpr int64_t kPairsPerCpu = 4;
constexpr size_t kProbeStatements = 4000;

std::unique_ptr<Database> OpenLoaded() {
  auto opened = Database::Open(
      FixedOptions(kPoolPages, kPoolShards, /*exec_workers=*/1,
                   /*plan_cache_capacity=*/0));
  if (!opened.ok()) return nullptr;
  std::unique_ptr<Database> db = opened.TakeValue();
  if (!imon::ima::RegisterImaTables(db.get()).ok()) return nullptr;
  if (!imon::workload::SetupNref(db.get(), Nref(kProteins, 16)).ok()) {
    return nullptr;
  }
  return db;
}

struct Block {
  std::vector<int64_t> keys;
  std::vector<std::string> sql;
};

/// What running one block gave.
struct BlockRun {
  int64_t wall_ns = 0;
  int64_t trace_ns = 0;  ///< of which spent recording the trace
  std::vector<double> lat_us;
  std::vector<double> execute_us;  ///< traced statements only
};

/// Runs one block. With a lane, every statement is recorded as an
/// engine.Execute span split by the engine's stage counters.
BlockRun RunBlock(Database* db, const Block& block, OpTally* ops,
                  Trace* trace, Trace::Lane* lane,
                  const CounterReader& reader, int64_t* request) {
  BlockRun run;
  run.lat_us.reserve(block.sql.size());
  int64_t start = NowNanos();
  for (size_t i = 0; i < block.sql.size(); ++i) {
    Counters before;
    if (lane != nullptr) {
      int64_t r0 = NowNanos();
      before = reader.Read();
      run.trace_ns += NowNanos() - r0;
    }
    int64_t s0 = NowNanos();
    auto r = db->Execute(block.sql[i]);
    int64_t s1 = NowNanos();
    if (lane != nullptr) {
      RecordExecute(trace, lane, *request, s0, s1, reader.Read() - before);
      run.execute_us.push_back(Micros(s1 - s0));
      run.trace_ns += NowNanos() - s1;
    }
    ++*request;
    if (!r.ok()) {
      ops->Record(Outcome::kError);
      continue;
    }
    // Exactly the one row of the key asked for.
    if (r->rows.size() != 1 || r->rows[0].empty() ||
        r->rows[0][0].AsInt() != block.keys[i]) {
      ops->Record(Outcome::kWrong);
      continue;
    }
    ops->Record(Outcome::kOk);
    run.lat_us.push_back(Micros(s1 - s0));
  }
  run.wall_ns = NowNanos() - start;
  return run;
}

}  // namespace

RunResult RunPointEmbedded(const RunConfig& config, Trace* trace) {
  RunResult result;
  std::unique_ptr<Database> db = OpenLoaded();
  if (db == nullptr) {
    std::fprintf(stderr, "point_embedded: set-up failed\n");
    std::exit(1);
  }
  char note[200];
  std::snprintf(note, sizeof(note),
                "data %lld pages (%.1f MB), pool %zu pages, 1 busy thread",
                static_cast<long long>(db->TotalDataPages()),
                static_cast<double>(db->DataSizeBytes()) / (1 << 20),
                kPoolPages);
  result.Note(note);

  std::mt19937_64 rng(StreamSeed(config.seed, 1));
  std::uniform_int_distribution<int64_t> key(0, kProteins - 1);
  auto next_block = [&] {
    Block b;
    for (int i = 0; i < kBlock; ++i) {
      b.keys.push_back(key(rng));
      b.sql.push_back(imon::workload::PointQuery(b.keys.back()));
    }
    return b;
  };

  const bool traced = trace->enabled();
  Trace::Lane* lane = trace->NewLane();
  CounterReader reader(db.get());
  int64_t request = 0;
  OpTally warm;
  for (int i = 0; i < kWarmupBlocks; ++i) {
    RunBlock(db.get(), next_block(), &warm, trace, nullptr, reader, &request);
  }
  result.ops.Merge(warm);

  // Side A: monitored (untraced runs) / traced (traced runs).
  // Side B: unmonitored / untraced.
  std::vector<Pair> pairs;
  std::vector<double> a_block_s;
  std::vector<std::vector<double>> lat_us;  // per side-A block
  std::vector<double> execute_us;
  std::vector<std::string> probe_sql;
  int64_t traced_wall_ns = 0, traced_trace_ns = 0;
  Counters c0 = reader.Read();
  CpuRotation rotation;
  const int64_t span = static_cast<int64_t>(config.seconds) * 1000000000;
  const int64_t start = NowNanos();
  SpreadSetups setups(SetupCount(config.seconds), start, span, &rotation);
  for (int64_t pair = 0; NowNanos() < start + span; ++pair) {
    bool moved = false;
    if (setups.Due(NowNanos())) {
      std::unique_ptr<Database> other;
      if (!setups.Run([&] { return (other = OpenLoaded()) != nullptr; })) {
        std::fprintf(stderr, "point_embedded: set-up failed\n");
        std::exit(1);
      }
      moved = true;  // the set-up released this thread's pin
    }
    if (moved || pair % kPairsPerCpu == 0) rotation.Next();
    Block block = next_block();
    Pair p;
    p.a_first = pair % 2 == 0;
    for (int step = 0; step < 2; ++step) {
      bool side_a = (step == 0) == p.a_first;
      if (!traced) db->monitor()->set_enabled(side_a);
      Trace::Lane* l = traced && side_a ? lane : nullptr;
      BlockRun run = RunBlock(db.get(), block, &result.ops, trace, l, reader,
                              &request);
      double s = Seconds(run.wall_ns - run.trace_ns);
      (side_a ? p.a : p.b) = Seconds(run.wall_ns);
      if (!side_a) continue;
      a_block_s.push_back(s);
      lat_us.push_back(std::move(run.lat_us));
      if (l != nullptr) {
        traced_wall_ns += run.wall_ns;
        traced_trace_ns += run.trace_ns;
        execute_us.insert(execute_us.end(), run.execute_us.begin(),
                          run.execute_us.end());
      }
    }
    pairs.push_back(p);
    if (probe_sql.size() < kProbeStatements) {
      probe_sql.insert(probe_sql.end(), block.sql.begin(),
                       block.sql.begin() + 16);
    }
  }
  rotation.ReleaseAll();
  db->monitor()->set_enabled(true);
  Counters d = reader.Read() - c0;
  std::snprintf(note, sizeof(note),
                "%zu block pairs of %d statements, %zu set-ups",
                pairs.size(), kBlock, setups.done());
  result.Note(note);

  if (!traced) {
    result.Add("setup_s", setups.QuietSeconds(), "s");
    result.AddLatency(lat_us);
    result.Add("ops_per_s", kBlock / Quiet(a_block_s), "1/s");
    result.Add("monitor_ratio", PairedRatio(pairs), "ratio");
    return result;
  }

  ProbeTimes probe = ProbeStatementPath(db.get(), probe_sql, lane);
  AddProbeMetrics(probe, &result);
  result.Add("engine.execute_us_p50", Median(execute_us), "us");
  result.Add("engine.plan_cache_hit_ratio", d.PlanCacheHitRatio(), "ratio");
  result.Add("monitor.us_per_stmt", d.MonitorUsPerStatement(), "us");
  result.Add("storage.bp_hit_ratio", d.BufferPoolHitRatio(), "ratio");
  result.Add("storage.bp_shard_lock_wait",
             static_cast<double>(d.bp_shard_lock_wait), "count");
  result.Add("unattributed_share",
             1.0 - Ratio(static_cast<double>(trace->AttributedNanos()),
                         static_cast<double>(traced_wall_ns - traced_trace_ns)),
             "ratio");
  result.Add("trace_overhead", PairedRatio(pairs), "ratio");
  return result;
}

}  // namespace perfbench
