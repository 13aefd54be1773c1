// Shared pieces of the workloads: settings, key streams, CPU rotation,
// spread-out set-ups, host evidence, counter readers and probes.

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "common/hash.h"
#include "sql/normalizer.h"
#include "sql/parser.h"

namespace perfbench {

using imon::engine::Database;
using imon::engine::DatabaseOptions;

void RunResult::AddLatency(const std::vector<std::vector<double>>& windows) {
  Tail p50 = TailOverWindows(windows, 50);
  Tail p90 = TailOverWindows(windows, 90);
  Tail p99 = TailOverWindows(windows, 99);
  Add("lat_p50_us", p50.value, "us");
  Add("lat_p90_us", p90.value, "us");
  char line[240];
  std::snprintf(line, sizeof(line),
                "latency: p%g of the %zu windows' p50 %.2f us, p%g %.2f us, "
                "p%g %.2f us (>= %zu samples per window)",
                kQuietPercentile, p50.windows, p50.value, p90.percentile,
                p90.value, p99.percentile, p99.value, p99.min_samples);
  Note(line);
}

DatabaseOptions FixedOptions(size_t pool_pages, size_t pool_shards,
                             size_t exec_workers, size_t plan_cache_capacity) {
  DatabaseOptions options;
  options.buffer_pool_pages = pool_pages;
  options.buffer_pool_shards = pool_shards;
  options.exec_workers = exec_workers;
  options.plan_cache_capacity = plan_cache_capacity;
  options.monitor.shards = kMonitorShards;
  return options;
}

imon::workload::NrefConfig Nref(int64_t proteins, uint32_t main_pages) {
  imon::workload::NrefConfig nref;
  nref.proteins = proteins;
  nref.taxa = kTaxa;
  nref.seed = kNrefSeed;
  nref.main_pages = main_pages;
  return nref;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return imon::Mix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ZipfKeys::ZipfKeys(int64_t n, double s, uint64_t seed)
    : cdf_(static_cast<size_t>(n)), key_of_rank_(static_cast<size_t>(n)) {
  double total = 0;
  for (int64_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_[static_cast<size_t>(rank)] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(key_of_rank_.begin(), key_of_rank_.end(), int64_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(key_of_rank_.begin(), key_of_rank_.end(), rng);
}

int64_t ZipfKeys::Next(std::mt19937_64* rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return key_of_rank_[std::min(rank, key_of_rank_.size() - 1)];
}

// -- CPUs and set-ups ---------------------------------------------------------

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void CpuRotation::ReleaseAll() {
  if (cpus_.empty()) return;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
    return;
  }
  while (dirent* entry = readdir(dir)) {
    pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof(allowed_), &allowed_);
  }
  closedir(dir);
}

SpreadSetups::SpreadSetups(int count, int64_t start_ns, int64_t span_ns,
                           CpuRotation* rotation)
    : count_(count),
      start_ns_(start_ns),
      interval_ns_(span_ns / std::max(count, 1)),
      rotation_(rotation) {}

bool SpreadSetups::Due(int64_t now_ns) const {
  int64_t done = static_cast<int64_t>(seconds_.size());
  return done < count_ && now_ns >= start_ns_ + done * interval_ns_;
}

double TimeSetup(CpuRotation* rotation, const std::function<bool()>& setup) {
  rotation->Next();
  int64_t t0 = NowNanos();
  bool ok = setup();
  double seconds = Seconds(NowNanos() - t0);
  rotation->ReleaseAll();
  return ok ? seconds : -1;
}

bool SpreadSetups::Run(const std::function<bool()>& setup) {
  double seconds = TimeSetup(rotation_, setup);
  if (seconds < 0) return false;
  seconds_.push_back(seconds);
  return true;
}

int SetupCount(int seconds) { return std::max(3, seconds / 2); }

// -- host evidence ------------------------------------------------------------

int64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.compare(0, 4, "cpu ") != 0) return -1;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal
  int64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> v)) return -1;
  }
  return v;
}

double ReferenceKernelMs() {
  constexpr size_t kWords = (8u << 20) / sizeof(uint64_t);
  constexpr int kReads = 1 << 19;
  static std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kWords);
    for (size_t i = 0; i < t.size(); ++i) t[i] = imon::Mix64(i);
    return t;
  }();
  // Each read's address depends on the one before, so the reads do not
  // overlap; the result is stored so the loop is kept.
  static std::atomic<uint64_t> sink{0};
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t t0 = NowNanos();
    uint64_t x = 1;
    for (int i = 0; i < kReads; ++i) {
      x = table[x % kWords] + static_cast<uint64_t>(i);
    }
    sink.store(x, std::memory_order_relaxed);
    ms.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
  }
  return Median(ms);
}

int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// -- counters -----------------------------------------------------------------

namespace {

/// Applies `op` to every field of `a` with the matching field of `b`.
template <typename Op>
void ForEachField(Counters* a, const Counters& b, Op op) {
  op(a->stage_parse_ns, b.stage_parse_ns);
  op(a->stage_bind_ns, b.stage_bind_ns);
  op(a->stage_optimize_ns, b.stage_optimize_ns);
  op(a->stage_execute_ns, b.stage_execute_ns);
  op(a->stage_commit_ns, b.stage_commit_ns);
  op(a->monitor_ns, b.monitor_ns);
  op(a->monitor_statements, b.monitor_statements);
  op(a->bp_hits, b.bp_hits);
  op(a->bp_misses, b.bp_misses);
  op(a->bp_evictions, b.bp_evictions);
  op(a->bp_shard_lock_wait, b.bp_shard_lock_wait);
  op(a->morsels, b.morsels);
  op(a->lock_waits, b.lock_waits);
  op(a->lock_wait_ns, b.lock_wait_ns);
  op(a->server_requests, b.server_requests);
  op(a->server_request_us, b.server_request_us);
  op(a->server_bytes, b.server_bytes);
  op(a->server_queue_rejects, b.server_queue_rejects);
  op(a->plan_cache_hits, b.plan_cache_hits);
  op(a->plan_cache_misses, b.plan_cache_misses);
}

}  // namespace

Counters Counters::operator-(const Counters& base) const {
  Counters d = *this;
  ForEachField(&d, base, [](int64_t& x, int64_t y) { x -= y; });
  return d;
}

Counters& Counters::operator+=(const Counters& delta) {
  ForEachField(this, delta, [](int64_t& x, int64_t y) { x += y; });
  return *this;
}

double Ratio(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

double Counters::PlanCacheHitRatio() const {
  return Ratio(static_cast<double>(plan_cache_hits),
               static_cast<double>(plan_cache_hits + plan_cache_misses));
}

double Counters::BufferPoolHitRatio() const {
  return Ratio(static_cast<double>(bp_hits),
               static_cast<double>(bp_hits + bp_misses));
}

double Counters::MonitorUsPerStatement() const {
  return Ratio(Micros(monitor_ns), static_cast<double>(monitor_statements));
}

double Counters::LockWaitUs() const {
  return Ratio(Micros(lock_wait_ns), static_cast<double>(lock_waits));
}

void AttributeStages(Trace* trace, const Counters& d) {
  trace->Attribute(Layer::kSql, d.stage_parse_ns);
  trace->Attribute(Layer::kOptimizer, d.stage_bind_ns + d.stage_optimize_ns);
  trace->Attribute(Layer::kExec, d.stage_execute_ns);
  trace->Attribute(Layer::kMonitor, d.stage_commit_ns);
}

void RecordExecute(Trace* trace, Trace::Lane* lane, int64_t request,
                   int64_t s0, int64_t s1, const Counters& d) {
  int64_t id = lane->Add("engine.Execute", Layer::kEngine, s0, s1, request);
  lane->AddParts(
      id, s0, request,
      {{"sql.parse", Layer::kSql, d.stage_parse_ns},
       {"optimizer.bind", Layer::kOptimizer, d.stage_bind_ns},
       {"optimizer.optimize", Layer::kOptimizer, d.stage_optimize_ns},
       {"exec.execute", Layer::kExec, d.stage_execute_ns},
       {"monitor.commit", Layer::kMonitor, d.stage_commit_ns}});
  AttributeStages(trace, d);
  trace->Attribute(Layer::kEngine, (s1 - s0) - d.StageSum());
}

CounterReader::CounterReader(Database* db) : db_(db) {
  static constexpr const char* kStages[5] = {
      "stage.parse.nanos", "stage.bind.nanos", "stage.optimize.nanos",
      "stage.execute.nanos", "stage.commit.nanos"};
  imon::metrics::MetricsRegistry* reg = db->metrics();
  for (int i = 0; i < 5; ++i) stage_[i] = reg->GetHistogram(kStages[i]);
  bp_hits_ = reg->GetCounter("buffer_pool.hits");
  bp_misses_ = reg->GetCounter("buffer_pool.misses");
  bp_evictions_ = reg->GetCounter("buffer_pool.evictions");
  bp_lock_wait_ = reg->GetCounter("buffer_pool.shard_lock_wait");
  morsels_ = reg->GetCounter("exec.morsels_dispatched");
  lock_waits_ = reg->GetCounter("lock.waits");
  lock_wait_ns_ = reg->GetHistogram("lock.wait_nanos");
  server_requests_ = reg->GetCounter("server.requests");
  server_request_us_ = reg->GetHistogram("server.request_micros");
  server_bytes_in_ = reg->GetCounter("server.bytes_in");
  server_bytes_out_ = reg->GetCounter("server.bytes_out");
  server_queue_rejects_ = reg->GetCounter("server.queue_rejects");
}

Counters CounterReader::Read() const {
  Counters c;
  c.stage_parse_ns = stage_[0]->Sum();
  c.stage_bind_ns = stage_[1]->Sum();
  c.stage_optimize_ns = stage_[2]->Sum();
  c.stage_execute_ns = stage_[3]->Sum();
  c.stage_commit_ns = stage_[4]->Sum();
  imon::monitor::MonitorCounters mc = db_->monitor()->counters();
  c.monitor_ns = mc.total_monitor_nanos;
  c.monitor_statements = mc.statements_committed;
  c.bp_hits = bp_hits_->Value();
  c.bp_misses = bp_misses_->Value();
  c.bp_evictions = bp_evictions_->Value();
  c.bp_shard_lock_wait = bp_lock_wait_->Value();
  c.morsels = morsels_->Value();
  c.lock_waits = lock_waits_->Value();
  c.lock_wait_ns = lock_wait_ns_->Sum();
  c.server_requests = server_requests_->Value();
  c.server_request_us = server_request_us_->Sum();
  c.server_bytes = server_bytes_in_->Value() + server_bytes_out_->Value();
  c.server_queue_rejects = server_queue_rejects_->Value();
  imon::engine::PlanCacheStats pc = db_->plan_cache_stats();
  c.plan_cache_hits = pc.hits;
  c.plan_cache_misses = pc.misses;
  return c;
}

GaugeSampler::GaugeSampler(const imon::metrics::Gauge* gauge,
                           int64_t period_us)
    : gauge_(gauge), period_us_(period_us) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      sum_ += gauge_->Value();
      ++readings_;
      std::this_thread::sleep_for(std::chrono::microseconds(period_us_));
    }
  });
}

GaugeSampler::~GaugeSampler() { Stop(); }

void GaugeSampler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

double GaugeSampler::mean() const {
  return Ratio(static_cast<double>(sum_), static_cast<double>(readings_));
}

// -- probes -------------------------------------------------------------------

ProbeTimes ProbeStatementPath(Database* db,
                              const std::vector<std::string>& statements,
                              Trace::Lane* lane) {
  ProbeTimes out;
  int64_t parse_ns = 0;
  int64_t normalize_ns = 0;
  int64_t plan_ns = 0;
  int64_t planned = 0;
  for (const std::string& sql : statements) {
    int64_t t0 = NowNanos();
    auto parsed = imon::sql::Parse(sql);
    int64_t t1 = NowNanos();
    imon::sql::NormalizedStatement norm = imon::sql::NormalizeStatement(sql);
    int64_t t2 = NowNanos();
    parse_ns += t1 - t0;
    normalize_ns += t2 - t1;
    if (lane != nullptr) {
      lane->Add("sql.Parse", Layer::kSql, t0, t1, out.statements);
      lane->Add("sql.NormalizeStatement", Layer::kSql, t1, t2,
                out.statements);
    }
    if (parsed.ok() && sql.compare(0, 6, "SELECT") == 0) {
      int64_t t3 = NowNanos();
      auto plan = db->WhatIfPlan(sql, {});
      int64_t t4 = NowNanos();
      if (plan.ok()) {
        // What-if planning parses again; the parse measured just above
        // stands in for that part.
        plan_ns += (t4 - t3) - (t1 - t0);
        ++planned;
      }
      if (lane != nullptr) {
        lane->Add("engine.WhatIfPlan", Layer::kOptimizer, t3, t4,
                  out.statements);
      }
    }
    ++out.statements;
  }
  double n = static_cast<double>(out.statements);
  out.parse_us = Ratio(Micros(parse_ns), n);
  out.normalize_us = Ratio(Micros(normalize_ns), n);
  out.plan_us =
      std::max(0.0, Ratio(Micros(plan_ns), static_cast<double>(planned)));
  return out;
}

void AddProbeMetrics(const ProbeTimes& probe, RunResult* result) {
  result->Add("sql.parse_us", probe.parse_us, "us");
  result->Add("sql.normalize_us", probe.normalize_us, "us");
  result->Add("optimizer.plan_us", probe.plan_us, "us");
}

double ProbeImaRowsPerMs(Database* db, Trace::Lane* lane, OpTally* ops) {
  static constexpr const char* kImaTables[] = {
      "imp_statements", "imp_workload", "imp_references", "imp_statistics",
      "imp_templates",  "imp_tables",   "imp_attributes", "imp_indexes"};
  auto session = db->CreateInternalSession();
  int64_t rows = 0;
  int64_t nanos = 0;
  for (const char* table : kImaTables) {
    int64_t s0 = NowNanos();
    auto r = db->Execute(std::string("SELECT * FROM ") + table, session.get());
    int64_t s1 = NowNanos();
    if (lane != nullptr) lane->Add("ima.select", Layer::kIma, s0, s1, 0);
    if (!r.ok()) {
      ops->Record(Outcome::kError);
      continue;
    }
    ops->Record(Outcome::kOk);
    rows += static_cast<int64_t>(r->rows.size());
    nanos += s1 - s0;
  }
  return Ratio(static_cast<double>(rows), static_cast<double>(nanos) / 1e6);
}

}  // namespace perfbench
