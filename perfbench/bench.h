// Shared declarations of the benchmark program: run configuration and
// result, the fixed engine settings every workload uses, the seeded key
// streams, CPU rotation and spread-out set-ups, host evidence, and cheap
// readers of the counters the engine already exposes (metrics registry,
// monitor counters, plan cache).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "stats.h"
#include "trace.h"
#include "workload/nref.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: its metrics (end-to-end ones untraced,
/// per-layer ones traced), the operation tally, and human-readable notes
/// printed before the result line.
struct RunResult {
  OpTally ops;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Adds lat_p50_us and lat_p90_us read over `windows` (TailOverWindows)
  /// and notes p99 and the sample counts the values rest on.
  void AddLatency(const std::vector<std::vector<double>>& windows);
};

RunResult RunPointEmbedded(const RunConfig& config, Trace* trace);
RunResult RunOltpWire(const RunConfig& config, Trace* trace);
RunResult RunTuneCycle(const RunConfig& config, Trace* trace);

// -- fixed settings -----------------------------------------------------------
// Every option whose default follows the host (hardware_concurrency()) is
// set here, so plans, morsel splits, monitor shards and recommendations
// are the same on every host.

/// Monitor commit shards (MonitorConfig::shards, default: one per CPU).
inline constexpr size_t kMonitorShards = 4;
/// NREF generator seed: the data is the same for every workload seed.
inline constexpr uint64_t kNrefSeed = 42;
inline constexpr int64_t kTaxa = 200;
/// point_embedded and oltp_wire: 8 000 proteins (~630 pages) in an
/// 8 192-page pool, so point selects never miss.
inline constexpr int64_t kProteins = 8000;
inline constexpr size_t kPoolPages = 8192;
inline constexpr size_t kPoolShards = 8;

/// Engine options with every host-dependent value set explicitly.
imon::engine::DatabaseOptions FixedOptions(size_t pool_pages,
                                           size_t pool_shards,
                                           size_t exec_workers,
                                           size_t plan_cache_capacity);

/// The synthetic NREF at `proteins` with the fixed generator seed.
imon::workload::NrefConfig Nref(int64_t proteins, uint32_t main_pages);

/// Seed for one independent stream (`stream` distinguishes key streams,
/// clients and phases) derived from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

int64_t NowNanos();
inline double Seconds(int64_t nanos) {
  return static_cast<double>(nanos) / 1e9;
}
inline double Micros(int64_t nanos) {
  return static_cast<double>(nanos) / 1e3;
}

/// Zipf-distributed keys over [0, n) with exponent `s`; ranks map to keys
/// through a seeded permutation so the hot keys are scattered.
class ZipfKeys {
 public:
  ZipfKeys(int64_t n, double s, uint64_t seed);
  int64_t Next(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> key_of_rank_;
};

// -- CPUs and set-ups ---------------------------------------------------------

/// Moves the calling thread round the CPUs the process may run on, one
/// CPU per Next(). On a shared host one CPU can run at half speed for
/// seconds while a co-tenant loads its core, and a busy thread stays on
/// the CPU it started on, so a whole run could read one slow CPU. Going
/// round them all, every run samples the same CPUs, and Quiet() reads
/// the fast ones. Threads started while the caller is pinned inherit the
/// pin; ReleaseAll() gives every thread of the process the original CPU
/// set back.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { ReleaseAll(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  void ReleaseAll();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs `setup` on the next CPU and returns its time in seconds, or -1
/// when it returned false. Every thread of the process gets the original
/// CPU set back afterwards, threads the set-up started too.
double TimeSetup(CpuRotation* rotation, const std::function<bool()>& setup);

/// Times set-ups spread evenly over a run, each on the next CPU. Back to
/// back, set-ups share one spell of the host's speed and the same warm
/// allocator: the median of 5 moved 0.27-0.51 s between runs, while the
/// fastest of 10 spread 2 s apart read 0.281-0.294 s in 5 of 6 rounds.
class SpreadSetups {
 public:
  /// `count` set-ups over [start_ns, start_ns + span_ns), the first at
  /// start_ns.
  SpreadSetups(int count, int64_t start_ns, int64_t span_ns,
               CpuRotation* rotation);

  bool Due(int64_t now_ns) const;
  /// Runs `setup` on the next CPU and records its time; `setup` returns
  /// false on failure (the caller stops the run).
  bool Run(const std::function<bool()>& setup);
  /// The quiet-end reading of the recorded times, in seconds.
  double QuietSeconds() const { return Quiet(seconds_); }
  size_t done() const { return seconds_.size(); }

 private:
  int count_;
  int64_t start_ns_;
  int64_t interval_ns_;
  CpuRotation* rotation_;
  std::vector<double> seconds_;
};

/// Set-ups per run for the workloads that keep one data set for the run:
/// one every two seconds, at least three.
int SetupCount(int seconds);

// -- host evidence ------------------------------------------------------------

/// Steal ticks of all CPUs from /proc/stat (-1 when unreadable).
int64_t StealTicks();

/// Milliseconds a fixed benchmark-owned kernel takes: random reads over
/// an 8 MB table, the kind of work co-tenants slow most. Read before and
/// after a run, it shows whether the run fell into a host slow spell.
double ReferenceKernelMs();

/// Process CPU time (all threads), nanoseconds.
int64_t ProcessCpuNanos();

// -- counters the engine exposes ----------------------------------------------

/// One reading of the engine counters the benchmark attributes time and
/// work with. Subtract two readings for the delta between boundaries.
struct Counters {
  int64_t stage_parse_ns = 0;
  int64_t stage_bind_ns = 0;
  int64_t stage_optimize_ns = 0;
  int64_t stage_execute_ns = 0;
  int64_t stage_commit_ns = 0;
  int64_t monitor_ns = 0;
  int64_t monitor_statements = 0;
  int64_t bp_hits = 0;
  int64_t bp_misses = 0;
  int64_t bp_evictions = 0;
  int64_t bp_shard_lock_wait = 0;
  int64_t morsels = 0;
  int64_t lock_waits = 0;
  int64_t lock_wait_ns = 0;
  int64_t server_requests = 0;
  int64_t server_request_us = 0;
  int64_t server_bytes = 0;
  int64_t server_queue_rejects = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;

  Counters operator-(const Counters& base) const;
  Counters& operator+=(const Counters& delta);
  int64_t StageSum() const {
    return stage_parse_ns + stage_bind_ns + stage_optimize_ns +
           stage_execute_ns + stage_commit_ns;
  }
  // Ratios of a delta; 0 when nothing was counted.
  double PlanCacheHitRatio() const;
  double BufferPoolHitRatio() const;
  double MonitorUsPerStatement() const;
  double LockWaitUs() const;
};

double Ratio(double part, double whole);

/// Credits the engine stage times of delta `d` to sql (parse), optimizer
/// (bind + optimize), exec (execute) and monitor (commit).
void AttributeStages(Trace* trace, const Counters& d);

/// Records one Database::Execute call [s0, s1] as an engine.Execute span
/// with its stages (from the counter delta `d` taken around it) as child
/// spans, and credits the stages to their modules and the rest of the
/// call to the engine.
void RecordExecute(Trace* trace, Trace::Lane* lane, int64_t request,
                   int64_t s0, int64_t s1, const Counters& d);

/// Registry handles fetched once; Read() is a handful of relaxed loads
/// plus the monitor's and plan cache's counter snapshots.
class CounterReader {
 public:
  explicit CounterReader(imon::engine::Database* db);
  Counters Read() const;

 private:
  imon::engine::Database* db_;
  imon::metrics::Histogram* stage_[5];
  imon::metrics::Counter* bp_hits_;
  imon::metrics::Counter* bp_misses_;
  imon::metrics::Counter* bp_evictions_;
  imon::metrics::Counter* bp_lock_wait_;
  imon::metrics::Counter* morsels_;
  imon::metrics::Counter* lock_waits_;
  imon::metrics::Histogram* lock_wait_ns_;
  imon::metrics::Counter* server_requests_;
  imon::metrics::Histogram* server_request_us_;
  imon::metrics::Counter* server_bytes_in_;
  imon::metrics::Counter* server_bytes_out_;
  imon::metrics::Counter* server_queue_rejects_;
};

/// Polls a gauge from its own thread every `period_us` until Stop():
/// the mean of the readings.
class GaugeSampler {
 public:
  GaugeSampler(const imon::metrics::Gauge* gauge, int64_t period_us);
  ~GaugeSampler();
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void Stop();
  double mean() const;

 private:
  const imon::metrics::Gauge* gauge_;
  int64_t period_us_;
  std::atomic<bool> stop_{false};
  int64_t sum_ = 0;
  int64_t readings_ = 0;
  std::thread thread_;
};

// -- probes -------------------------------------------------------------------

/// Times `sql::Parse`, `sql::NormalizeStatement` and a what-if plan with
/// no virtual indexes over `statements`; mean microseconds per statement.
/// Run outside the timed phases: these calls repeat work the statement
/// path already does, to size the sql and optimizer layers on their own.
struct ProbeTimes {
  double parse_us = 0;
  double normalize_us = 0;
  double plan_us = 0;  ///< what-if planning minus its parse
  int64_t statements = 0;
};
ProbeTimes ProbeStatementPath(imon::engine::Database* db,
                              const std::vector<std::string>& statements,
                              Trace::Lane* lane);

/// Adds the sql and optimizer probe metrics to a traced run's result.
void AddProbeMetrics(const ProbeTimes& probe, RunResult* result);

/// Rows per millisecond of the IMA tables the daemon reads, selected on
/// an internal session as the daemon does; failed selects go to `ops`.
double ProbeImaRowsPerMs(imon::engine::Database* db, Trace::Lane* lane,
                         OpTally* ops);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
