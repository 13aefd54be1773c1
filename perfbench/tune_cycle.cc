// tune_cycle: the paper's §V-B / Fig. 7 loop on overflow-heavy heaps
// (main_pages = 2) behind a buffer pool about a third of the untuned
// data, so the untuned scans evict. One cycle:
//
//   0. set-up: a freshly loaded NREF, workload database, daemon and
//      tuner, on the next CPU;
//   1. each of the 50 ComplexQuerySet queries twice back to back, once
//      monitored and once not, the seed picking which goes first;
//   2. StorageDaemon::PollOnce twice (the second one flushes) + FlushNow
//      into the workload database;
//   3. Analyzer::Analyze;
//   4. TuningOrchestrator::Submit, then Tick until every action is final
//      (per-table cooldown off, verification window zero);
//   5. the 50 queries again with the monitor off (tuned).
//
// Cycles repeat until the run time is used. The statements users wait
// for are the monitored untuned ones and the tuned ones: 100 per cycle,
// each read at the quiet end over the cycles. Throughput counts them
// over their time plus the tuning step's, so a slower analyze or apply
// shows. The data and the query order are fixed: the analyzer's
// recommendations depend on the order in which statement shapes are
// first seen (shuffled orders gave 20 instead of 22 for some seeds), so
// the seed only picks which side of each monitored/unmonitored pair goes
// first.
//
// Traced mode pairs traced with untraced cycles.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "bench.h"
#include "daemon/daemon.h"
#include "ima/ima.h"
#include "testing/oracle.h"
#include "tuner/tuner.h"

namespace perfbench {
namespace {

using imon::engine::Database;

/// ~2 000 proteins load to ~165 pages with main_pages 2; the pool holds
/// about a third of them. Two shards of 28 frames leave room for every
/// pin set one operation takes.
constexpr int64_t kTuneProteins = 2000;
constexpr size_t kTunePoolPages = 56;
constexpr size_t kTunePoolShards = 2;
constexpr size_t kTuneExecWorkers = 2;
constexpr int kQueries = 50;
constexpr int kMaxTicks = 500;
constexpr int kMinCycles = 6;

struct Cycle {
  std::unique_ptr<Database> db;
  std::unique_ptr<Database> workload_db;
  std::unique_ptr<imon::daemon::StorageDaemon> daemon;
  std::unique_ptr<imon::tuner::TuningOrchestrator> tuner;
};

std::unique_ptr<Cycle> OpenCycle() {
  auto cycle = std::make_unique<Cycle>();
  auto opened = Database::Open(FixedOptions(kTunePoolPages, kTunePoolShards,
                                            kTuneExecWorkers,
                                            /*plan_cache_capacity=*/0));
  if (!opened.ok()) return nullptr;
  cycle->db = opened.TakeValue();
  if (!imon::ima::RegisterImaTables(cycle->db.get()).ok()) return nullptr;
  if (!imon::workload::SetupNref(cycle->db.get(), Nref(kTuneProteins, 2))
           .ok()) {
    return nullptr;
  }
  imon::engine::DatabaseOptions wl_options =
      FixedOptions(/*pool_pages=*/1024, kPoolShards, /*exec_workers=*/1,
                   /*plan_cache_capacity=*/0);
  wl_options.monitor.enabled = false;
  auto wl = Database::Open(wl_options);
  if (!wl.ok()) return nullptr;
  cycle->workload_db = wl.TakeValue();
  imon::daemon::DaemonConfig daemon_config;
  // Two polls per cycle: the first reads the monitor's new workload,
  // reference and statistics rows; the second, due to flush, reads the
  // statements, templates and object tables and writes everything to
  // the workload database. The FlushNow after them finds nothing left.
  daemon_config.polls_per_flush = 2;
  daemon_config.flush_pressure_rows = 0;  // full capture
  cycle->daemon = std::make_unique<imon::daemon::StorageDaemon>(
      cycle->db.get(), cycle->workload_db.get(), daemon_config);
  if (!cycle->daemon->Initialize().ok()) return nullptr;
  imon::tuner::TunerConfig tuner_config;
  tuner_config.table_cooldown = std::chrono::seconds(0);
  tuner_config.verification_window = std::chrono::seconds(0);
  cycle->tuner = std::make_unique<imon::tuner::TuningOrchestrator>(
      cycle->db.get(), cycle->workload_db.get(), tuner_config);
  if (!cycle->tuner->Initialize().ok()) return nullptr;
  return cycle;
}

/// True when fingerprints `a` and `b` list as many rows each and every
/// row of both occurs in `full` (as a multiset).
bool SameSizeSubsets(const std::string& a, const std::string& b,
                     const std::string& full) {
  auto lines = [](const std::string& fp) {
    std::map<std::string, int64_t> out;
    size_t start = 0;
    for (size_t nl; (nl = fp.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      ++out[fp.substr(start, nl - start)];
    }
    return out;
  };
  auto within = [](const std::map<std::string, int64_t>& part,
                   const std::map<std::string, int64_t>& whole) {
    for (const auto& [row, n] : part) {
      auto it = whole.find(row);
      if (it == whole.end() || it->second < n) return false;
    }
    return true;
  };
  auto rows_full = lines(full);
  return std::count(a.begin(), a.end(), '\n') ==
             std::count(b.begin(), b.end(), '\n') &&
         within(lines(a), rows_full) && within(lines(b), rows_full);
}

/// What one cycle measured.
struct CycleResult {
  double tune_s = 0;
  std::vector<double> untuned_us;  ///< monitored, by query
  std::vector<double> tuned_us;    ///< by query
  std::vector<Pair> monitor_pairs;
  int64_t blocking_ns = 0;  ///< untuned monitored + tuning + tuned
  std::vector<Metric> layers;  ///< traced cycles only
  double untuned_mb = 0;
  double tuned_mb = 0;
  double recommendations = 0;
};

/// One Execute of a cycle: its time, and with a lane its span.
struct Executed {
  imon::Result<imon::engine::QueryResult> result =
      imon::Status::Internal("not run");
  int64_t nanos = 0;
};

class CycleRunner {
 public:
  CycleRunner(const RunConfig& config, const std::vector<std::string>& queries,
              Trace* trace, CpuRotation* rotation, OpTally* ops)
      : config_(config),
        queries_(queries),
        trace_(trace),
        rotation_(rotation),
        ops_(ops) {}

  /// Runs cycle `index`, traced when `lane` is non-null.
  bool Run(int index, Trace::Lane* lane, CycleResult* out);

  double SetupQuietSeconds() const { return Quiet(setup_s_); }

 private:
  Executed Execute(Database* db, const std::string& sql, Trace::Lane* lane,
                   const CounterReader& reader, Counters* traced);
  /// Times one call of a control-path layer and records it as a span.
  template <typename Fn>
  int64_t Timed(const char* name, Layer layer, Trace::Lane* lane, Fn&& fn) {
    int64_t t0 = NowNanos();
    fn();
    int64_t t1 = NowNanos();
    if (lane != nullptr) {
      lane->Add(name, layer, t0, t1, request_);
      trace_->Attribute(layer, t1 - t0);
    }
    return t1 - t0;
  }

  const RunConfig& config_;
  const std::vector<std::string>& queries_;
  Trace* trace_;
  CpuRotation* rotation_;
  OpTally* ops_;
  std::vector<double> setup_s_;
  int64_t request_ = 0;
};

Executed CycleRunner::Execute(Database* db, const std::string& sql,
                              Trace::Lane* lane, const CounterReader& reader,
                              Counters* traced) {
  Executed e;
  Counters before;
  if (lane != nullptr) before = reader.Read();
  int64_t s0 = NowNanos();
  e.result = db->Execute(sql);
  int64_t s1 = NowNanos();
  e.nanos = s1 - s0;
  if (lane != nullptr) {
    Counters d = reader.Read() - before;
    RecordExecute(trace_, lane, request_, s0, s1, d);
    *traced += d;
  }
  ++request_;
  if (!e.result.ok()) {
    std::fprintf(stderr, "tune_cycle: %s\n  %s\n",
                 e.result.status().ToString().c_str(), sql.c_str());
  }
  ops_->Record(e.result.ok() ? Outcome::kOk : Outcome::kError);
  return e;
}

bool CycleRunner::Run(int index, Trace::Lane* lane, CycleResult* out) {
  std::unique_ptr<Cycle> cycle;
  double setup_s =
      TimeSetup(rotation_, [&] { return (cycle = OpenCycle()) != nullptr; });
  if (setup_s < 0) return false;
  setup_s_.push_back(setup_s);
  Database* db = cycle->db.get();
  CounterReader reader(db);
  Counters traced;  // summed over the traced (monitored) statements
  int64_t attributed0 = trace_->AttributedNanos();
  out->untuned_mb = static_cast<double>(db->DataSizeBytes()) / (1 << 20);

  // 1. untuned pairs.
  std::vector<std::string> before_fp(queries_.size());
  out->untuned_us.assign(queries_.size(), 0);
  out->tuned_us.assign(queries_.size(), 0);
  std::vector<double> execute_us, qerrors;
  int64_t rows_out = 0, rows_examined = 0, physical_reads = 0;
  auto account = [&](const imon::engine::QueryResult& r) {
    double actual = std::max(1.0, static_cast<double>(r.rows.size()));
    double estimated = std::max(1.0, r.stats.estimated_rows);
    qerrors.push_back(std::max(actual, estimated) /
                      std::min(actual, estimated));
    rows_out += static_cast<int64_t>(r.rows.size());
    rows_examined += r.stats.rows_examined;
  };
  std::unique_ptr<GaugeSampler> busy;
  if (lane != nullptr) {
    busy = std::make_unique<GaugeSampler>(
        db->metrics()->GetGauge("exec.worker_busy"), 200);
  }
  std::mt19937_64 rng(
      StreamSeed(config_.seed, 1000 + static_cast<uint64_t>(index)));
  for (size_t q = 0; q < queries_.size(); ++q) {
    Pair p;
    p.a_first = rng() % 2 == 0;
    for (int step = 0; step < 2; ++step) {
      bool monitored = (step == 0) == p.a_first;
      db->monitor()->set_enabled(monitored);
      Executed e = Execute(db, queries_[q], monitored ? lane : nullptr,
                           reader, &traced);
      (monitored ? p.a : p.b) = Seconds(e.nanos);
      if (!monitored) continue;
      out->untuned_us[q] = Micros(e.nanos);
      out->blocking_ns += e.nanos;
      if (!e.result.ok()) {
        before_fp[q] = "error";
        continue;
      }
      before_fp[q] = imon::testing::Fingerprint(*e.result);
      account(*e.result);
      physical_reads += e.result->stats.physical_reads;
      execute_us.push_back(Micros(e.nanos));
    }
    out->monitor_pairs.push_back(p);
  }
  db->monitor()->set_enabled(true);
  double busy_share = 0;
  if (busy != nullptr) {
    busy->Stop();
    busy_share = busy->mean() / static_cast<double>(kTuneExecWorkers);
  }
  Counters untuned = traced;
  double ima_rows_per_ms = 0;
  ProbeTimes probe;
  if (lane != nullptr) {
    // Probes, outside the blocking path.
    probe = ProbeStatementPath(db, queries_, lane);
    ima_rows_per_ms = ProbeImaRowsPerMs(db, lane, ops_);
  }

  // 2-4. record, analyze, apply.
  int64_t tune_start = NowNanos();
  bool ok = true;
  int64_t poll_ns = Timed("daemon.PollOnce", Layer::kDaemon, lane, [&] {
    ok = cycle->daemon->PollOnce().ok() && ok;
  });
  int64_t flush_ns = Timed("daemon.PollOnce", Layer::kDaemon, lane, [&] {
    ok = cycle->daemon->PollOnce().ok() && ok;
  });
  flush_ns += Timed("daemon.FlushNow", Layer::kDaemon, lane, [&] {
    ok = cycle->daemon->FlushNow().ok() && ok;
  });
  imon::analyzer::Analyzer analyzer(db, cycle->workload_db.get());
  imon::Result<imon::analyzer::AnalysisReport> report =
      imon::Status::Internal("not run");
  int64_t analyze_ns = Timed("analyzer.Analyze", Layer::kAnalyzer, lane,
                             [&] { report = analyzer.Analyze(); });
  int64_t apply_ns = 0;
  imon::tuner::TunerStats ts;
  if (!report.ok()) {
    ok = false;
  } else {
    out->recommendations = static_cast<double>(report->recommendations.size());
    apply_ns += Timed("tuner.Submit", Layer::kTuner, lane, [&] {
      ok = cycle->tuner->Submit(report->recommendations).ok() && ok;
    });
    auto pending = [&] {
      for (const auto& a : cycle->tuner->SnapshotActions()) {
        if (!imon::tuner::ActionStateIsTerminal(a.state)) return true;
      }
      return false;
    };
    int ticks = 0;
    for (; ticks < kMaxTicks && pending(); ++ticks) {
      apply_ns += Timed("tuner.Tick", Layer::kTuner, lane,
                        [&] { ok = cycle->tuner->Tick().ok() && ok; });
    }
    if (ticks == kMaxTicks) ok = false;
    ts = cycle->tuner->stats();
    // Every submitted action is one tuning operation.
    for (int64_t i = 0; i < ts.submitted; ++i) {
      ops_->Record(i < ts.apply_failures ? Outcome::kError : Outcome::kOk);
    }
  }
  // The poll, the flush and the analysis.
  ops_->Record(ok ? Outcome::kOk : Outcome::kError);
  int64_t tune_ns = NowNanos() - tune_start;
  out->tune_s = Seconds(tune_ns);
  out->blocking_ns += tune_ns;
  imon::daemon::DaemonStats ds = cycle->daemon->stats();

  // 5. tuned, unmonitored.
  db->monitor()->set_enabled(false);
  std::vector<std::string> after_fp(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    Executed e = Execute(db, queries_[q], lane, reader, &traced);
    out->tuned_us[q] = Micros(e.nanos);
    out->blocking_ns += e.nanos;
    after_fp[q] = e.result.ok() ? imon::testing::Fingerprint(*e.result)
                                : "error";
    if (e.result.ok()) account(*e.result);
  }
  out->tuned_mb = static_cast<double>(db->DataSizeBytes()) / (1 << 20);

  // Tuning changes cost, never results. A LIMIT without a total order
  // lets the plan choose which rows qualify, so there both answers must
  // have the same size and be drawn from the full answer.
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (before_fp[q] == "error" || after_fp[q] == "error") continue;
    if (before_fp[q] == after_fp[q]) {
      ops_->Record(Outcome::kOk);
      continue;
    }
    size_t limit = queries_[q].rfind(" LIMIT ");
    bool same = false;
    if (limit != std::string::npos) {
      auto full = db->Execute(queries_[q].substr(0, limit));
      same = full.ok() && SameSizeSubsets(before_fp[q], after_fp[q],
                                          imon::testing::Fingerprint(*full));
    }
    ops_->Record(same ? Outcome::kOk : Outcome::kWrong);
    if (!same) {
      std::fprintf(stderr, "tune_cycle: result changed by tuning:\n  %s\n",
                   queries_[q].c_str());
    }
  }
  if (lane == nullptr) return true;

  auto add = [&](const char* name, double value, const char* unit) {
    out->layers.push_back({name, value, unit});
  };
  add("engine.execute_us_p50", Median(execute_us), "us");
  add("optimizer.est_qerror_p50", Median(qerrors), "ratio");
  add("exec.rows_examined_per_row",
      Ratio(static_cast<double>(rows_examined), static_cast<double>(rows_out)),
      "ratio");
  add("exec.morsels", static_cast<double>(untuned.morsels), "count");
  add("exec.worker_busy_share", busy_share, "ratio");
  add("storage.bp_hit_ratio", untuned.BufferPoolHitRatio(), "ratio");
  add("storage.bp_evictions", static_cast<double>(untuned.bp_evictions),
      "count");
  add("storage.physical_reads_per_query",
      static_cast<double>(physical_reads) / kQueries, "count");
  add("storage.tuned_mb", out->tuned_mb, "MB");
  add("storage.bp_shard_lock_wait",
      static_cast<double>(traced.bp_shard_lock_wait), "count");
  add("monitor.us_per_stmt", untuned.MonitorUsPerStatement(), "us");
  add("ima.rows_per_ms", ima_rows_per_ms, "1/ms");
  add("daemon.poll_ms", static_cast<double>(poll_ns) / 1e6, "ms");
  add("daemon.flush_ms", static_cast<double>(flush_ns) / 1e6, "ms");
  add("daemon.bytes_per_stmt",
      Ratio(static_cast<double>(ds.bytes_written_estimate),
            static_cast<double>(untuned.monitor_statements)),
      "B");
  add("analyzer.analyze_ms", static_cast<double>(analyze_ns) / 1e6, "ms");
  add("analyzer.recommendations", out->recommendations, "count");
  add("tuner.apply_ms", static_cast<double>(apply_ns) / 1e6, "ms");
  add("tuner.applied", static_cast<double>(ts.applied), "count");
  add("tuner.rejected", static_cast<double>(ts.rejected), "count");
  add("sql.parse_us", probe.parse_us, "us");
  add("sql.normalize_us", probe.normalize_us, "us");
  add("optimizer.plan_us", probe.plan_us, "us");
  add("unattributed_share",
      1.0 - Ratio(static_cast<double>(trace_->AttributedNanos() - attributed0),
                  static_cast<double>(out->blocking_ns)),
      "ratio");
  return true;
}

}  // namespace

RunResult RunTuneCycle(const RunConfig& config, Trace* trace) {
  RunResult result;
  std::vector<std::string> queries =
      imon::workload::ComplexQuerySet(Nref(kTuneProteins, 2), kQueries);
  Trace::Lane* lane = trace->NewLane();
  CpuRotation rotation;
  CycleRunner runner(config, queries, trace, &rotation, &result.ops);
  std::vector<CycleResult> cycles;
  std::vector<Pair> trace_pairs;
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(config.seconds) * 1000000000;
  while (cycles.size() < static_cast<size_t>(kMinCycles) ||
         NowNanos() < deadline) {
    // Traced runs pair cycles, traced one first in every other pair.
    int i = static_cast<int>(cycles.size());
    bool traced_cycle = lane != nullptr && (i % 2 == 0) == (i / 2 % 2 == 0);
    CycleResult c;
    if (!runner.Run(i, traced_cycle ? lane : nullptr, &c)) {
      std::fprintf(stderr, "tune_cycle: set-up failed\n");
      std::exit(1);
    }
    if (lane != nullptr) {
      if (i % 2 == 0) trace_pairs.emplace_back();
      Pair& p = trace_pairs.back();
      (traced_cycle ? p.a : p.b) = Seconds(c.blocking_ns);
      if (i % 2 == 0) p.a_first = traced_cycle;
    }
    cycles.push_back(std::move(c));
  }

  std::vector<double> tune_s;
  std::vector<Pair> monitor_pairs;
  // The data is fixed, so every cycle tunes to the same design.
  bool same_design = true;
  for (const CycleResult& c : cycles) {
    tune_s.push_back(c.tune_s);
    monitor_pairs.insert(monitor_pairs.end(), c.monitor_pairs.begin(),
                         c.monitor_pairs.end());
    same_design = same_design &&
                  c.recommendations == cycles[0].recommendations &&
                  c.tuned_mb == cycles[0].tuned_mb;
  }
  char note[300];
  std::snprintf(note, sizeof(note),
                "%zu cycles; %lld proteins, pool %zu pages in %zu shards, "
                "exec_workers %zu (2 busy threads); untuned %.2f MB, tuned "
                "%.2f MB, %.0f recommendations%s",
                cycles.size(), static_cast<long long>(kTuneProteins),
                kTunePoolPages, kTunePoolShards, kTuneExecWorkers,
                cycles[0].untuned_mb, cycles[0].tuned_mb,
                cycles[0].recommendations,
                same_design ? " in every cycle" : " in the first cycle; "
                "later cycles differ");
  result.Note(note);

  if (!trace->enabled()) {
    // Statement j's quiet time over the cycles, untuned and tuned.
    std::vector<double> quiet_us;
    double untuned_total_us = 0, tuned_total_us = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      for (bool tuned : {false, true}) {
        std::vector<double> over_cycles;
        for (const CycleResult& c : cycles) {
          over_cycles.push_back(tuned ? c.tuned_us[q] : c.untuned_us[q]);
        }
        quiet_us.push_back(Quiet(over_cycles));
        (tuned ? tuned_total_us : untuned_total_us) += quiet_us.back();
      }
    }
    double tail = SupportedPercentile(quiet_us.size());
    double total_s = (untuned_total_us + tuned_total_us) / 1e6 + Quiet(tune_s);
    result.Add("setup_s", runner.SetupQuietSeconds(), "s");
    result.Add("lat_p50_us", Median(quiet_us), "us");
    result.Add("lat_p90_us", Percentile(quiet_us, tail), "us");
    result.Add("ops_per_s", static_cast<double>(quiet_us.size()) / total_s,
               "1/s");
    result.Add("monitor_ratio", PairedRatio(monitor_pairs), "ratio");
    std::snprintf(note, sizeof(note),
                  "latency: p50 and p%g of %zu per-statement times, each the "
                  "p%g over %zu cycles (p99 needs 1000 samples); untuned "
                  "%.1f ms, tune %.1f ms, tuned %.1f ms (tuned/untuned %.3f)",
                  tail, quiet_us.size(), kQuietPercentile, cycles.size(),
                  untuned_total_us / 1e3, Quiet(tune_s) * 1e3,
                  tuned_total_us / 1e3,
                  Ratio(tuned_total_us, untuned_total_us));
    result.Note(note);
    return result;
  }

  // Per-layer metrics: each one's median over the traced cycles.
  std::map<std::string, std::pair<std::vector<double>, std::string>> layers;
  std::vector<std::string> names;
  for (const CycleResult& c : cycles) {
    for (const Metric& m : c.layers) {
      auto& slot = layers[m.name];
      if (slot.first.empty()) names.push_back(m.name);
      slot.first.push_back(m.value);
      slot.second = m.unit;
    }
  }
  for (const std::string& name : names) {
    result.Add(name, Median(layers[name].first), layers[name].second);
  }
  result.Add("trace_overhead", PairedRatio(trace_pairs), "ratio");
  return result;
}

}  // namespace perfbench
