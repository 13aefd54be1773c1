// oltp_wire: serving traffic over the wire protocol. kClients closed-loop
// server::Client connections, one persistent thread each, against an
// in-process server::Server with one event thread and one executor
// thread: 90 % primary-key point selects and 10 % single-row UPDATEs of
// mol_weight, keys Zipf-skewed, on the point_embedded data with a plan
// cache. Busy threads: 2 clients + 1 event + 1 executor = 4. The storage
// daemon polls every kPollInterval from a thread that sleeps in between.
//
// Closed loop: every client waits for its reply before sending the next
// statement, as the blocking client's callers do. Each client owns the
// UPDATE keys congruent to its index (mod kClients), so the last value
// written to a key is known and can be read back; reads range over all
// keys, so readers and writers meet on the hot keys.
//
// The run is cut into windows in which every client sends
// kWindowStatements statements. Windows come in pairs that replay the same
// statements, one with the monitor's sensors on and one with them off
// (which goes first alternates); the monitor is switched between windows,
// while no client has a statement in flight. Latency and throughput are
// read from the monitored windows at the quiet end. Set-ups of a second,
// throwaway stack are spread over the run between window pairs, each on
// the next CPU, while the clients wait.
//
// Traced mode keeps the monitor on and pairs traced with untraced windows
// instead; trace_overhead is their paired ratio.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "daemon/daemon.h"
#include "ima/ima.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/oracle.h"

namespace perfbench {
namespace {

using imon::engine::Database;
using imon::server::Client;
using imon::server::Server;

constexpr int kClients = 2;
constexpr double kZipfExponent = 0.99;
constexpr int kWritePercent = 10;
constexpr int kWindowStatements = 500;  // per client
constexpr int kWarmupPairs = 10;
constexpr size_t kPlanCacheCapacity = 1024;
constexpr auto kPollInterval = std::chrono::milliseconds(200);
constexpr int kPollsPerFlush = 5;
/// Raw workload records kept, parts per million (template aggregates see
/// every statement). At ~40 000 statements/s full capture would flood the
/// daemon, and adaptive sampling would set a rate that oscillates from
/// flush to flush, and with it the monitor's and the daemon's cost. At a
/// fixed 2 % the daemon thread is busy a few percent of the time.
constexpr uint32_t kRawSamplePpm = 20000;
/// The workload database's pool; its pages live in memory either way.
constexpr size_t kWorkloadPoolPages = 1024;
constexpr int kFingerprintSamples = 64;
constexpr size_t kProbeStatements = 4000;

imon::server::ServerOptions FixedServerOptions() {
  imon::server::ServerOptions options;
  options.event_threads = 1;
  options.executor_threads = 1;
  options.queue_depth = 64;
  options.idle_timeout = std::chrono::milliseconds(0);
  return options;
}

/// Everything one run serves from. Members are destroyed in reverse:
/// clients disconnect, then the server drains, then the daemon, then the
/// databases it reads and writes.
struct Stack {
  std::unique_ptr<Database> db;
  std::unique_ptr<Database> workload_db;
  std::unique_ptr<imon::daemon::StorageDaemon> daemon;
  std::unique_ptr<Server> server;
  std::vector<Client> clients;

  ~Stack() {
    for (Client& c : clients) c.Disconnect();
    if (server != nullptr) server->Shutdown();
  }
};

std::unique_ptr<Stack> OpenStack() {
  auto stack = std::make_unique<Stack>();
  auto opened = Database::Open(FixedOptions(
      kPoolPages, kPoolShards, /*exec_workers=*/1, kPlanCacheCapacity));
  if (!opened.ok()) return nullptr;
  stack->db = opened.TakeValue();
  if (!imon::ima::RegisterImaTables(stack->db.get()).ok()) return nullptr;
  if (!imon::workload::SetupNref(stack->db.get(), Nref(kProteins, 16)).ok()) {
    return nullptr;
  }
  stack->db->monitor()->SetWorkloadSampleRate(kRawSamplePpm);
  imon::engine::DatabaseOptions wl_options =
      FixedOptions(kWorkloadPoolPages, kPoolShards, /*exec_workers=*/1,
                   /*plan_cache_capacity=*/0);
  wl_options.monitor.enabled = false;
  auto wl = Database::Open(wl_options);
  if (!wl.ok()) return nullptr;
  stack->workload_db = wl.TakeValue();
  imon::daemon::DaemonConfig daemon_config;
  daemon_config.poll_interval = kPollInterval;
  daemon_config.polls_per_flush = kPollsPerFlush;
  daemon_config.flush_pressure_rows = 0;  // the fixed rate above
  stack->daemon = std::make_unique<imon::daemon::StorageDaemon>(
      stack->db.get(), stack->workload_db.get(), daemon_config);
  if (!stack->daemon->Initialize().ok()) return nullptr;
  stack->server =
      std::make_unique<Server>(stack->db.get(), FixedServerOptions());
  if (!stack->server->Start().ok()) return nullptr;
  stack->clients.resize(kClients);
  for (Client& c : stack->clients) {
    if (!c.Connect("127.0.0.1", stack->server->port()).ok()) return nullptr;
  }
  return stack;
}

/// Calls PollOnce every kPollInterval on its own thread, the loop
/// StorageDaemon::Start runs, driven from here so each call can be timed.
/// Every kPollsPerFlush-th poll also writes the workload database; those
/// are timed apart from the others.
class Poller {
 public:
  Poller(imon::daemon::StorageDaemon* daemon, Trace::Lane* lane)
      : daemon_(daemon), lane_(lane), thread_([this] { Loop(); }) {}
  ~Poller() { Stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const std::vector<double>& poll_ms() const { return poll_ms_; }
  const std::vector<double>& flush_ms() const { return flush_ms_; }
  const OpTally& ops() const { return ops_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, kPollInterval, [this] { return stop_; })) {
      lock.unlock();
      int64_t flushes = daemon_->stats().flushes;
      int64_t t0 = NowNanos();
      bool ok = daemon_->PollOnce().ok();
      int64_t t1 = NowNanos();
      ops_.Record(ok ? Outcome::kOk : Outcome::kError);
      bool flushed = daemon_->stats().flushes != flushes;
      (flushed ? flush_ms_ : poll_ms_).push_back(static_cast<double>(t1 - t0) /
                                                 1e6);
      if (lane_ != nullptr) {
        lane_->Add("daemon.PollOnce", Layer::kDaemon, t0, t1, ops_.attempted);
      }
      lock.lock();
    }
  }

  imon::daemon::StorageDaemon* daemon_;
  Trace::Lane* lane_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> poll_ms_;
  std::vector<double> flush_ms_;
  OpTally ops_;
  std::thread thread_;
};

struct Op {
  bool write = false;
  int64_t key = 0;
};

/// What one client did in one window.
struct WindowOut {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<double> lat_us;
  int64_t queue_depth_max = 0;  ///< traced windows only
};

/// Starts windows on the persistent client threads and waits for them:
/// the main thread sleeps while the clients run, and the clients sleep
/// while it switches the monitor or runs a set-up.
class WindowGate {
 public:
  explicit WindowGate(int clients) : clients_(clients) {}

  /// Main thread: starts the next window and returns when every client has
  /// finished it.
  void RunWindow() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++generation_;
    done_ = 0;
    cv_.notify_all();
    cv_.wait(lock, [this] { return done_ == clients_; });
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    cv_.notify_all();
  }
  /// Client: waits for a window after `*seen`; false once stopped.
  bool Await(int64_t* seen) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return stop_ || generation_ > *seen; });
    *seen = generation_;
    return !stop_;
  }
  void Finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (++done_ == clients_) cv_.notify_all();
  }

 private:
  const int clients_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int64_t generation_ = 0;
  int done_ = 0;
  bool stop_ = false;
};

std::string UpdateSql(int64_t key, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "UPDATE protein SET mol_weight = %.2f WHERE nref_id = %lld",
                value, static_cast<long long>(key));
  return buf;
}

/// One client: its connection, its persistent thread, the window it is
/// told to run next, and what it saw over the run.
class ClientWorker {
 public:
  ClientWorker(int index, Client* client, uint16_t port, WindowGate* gate,
               imon::metrics::Gauge* queue_depth)
      : index_(index),
        client_(client),
        port_(port),
        gate_(gate),
        queue_depth_(queue_depth) {}

  ~ClientWorker() { Join(); }
  ClientWorker(const ClientWorker&) = delete;
  ClientWorker& operator=(const ClientWorker&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  /// Returns once the gate has been stopped and the thread has ended.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  // Set by the main thread before RunWindow(), read back after it.
  const std::vector<Op>* ops = nullptr;
  bool measured = false;
  Trace::Lane* lane = nullptr;
  WindowOut out;

  OpTally tally;
  /// The last value this client wrote to each of its keys, warm-up
  /// included.
  std::map<int64_t, double> last_written;
  std::vector<std::string> probe_sql;

 private:
  void Loop() {
    int64_t seen = 0;
    while (gate_->Await(&seen)) {
      RunWindow();
      gate_->Finish();
    }
  }

  void RunWindow() {
    out = WindowOut();
    out.lat_us.reserve(ops->size());
    out.start_ns = NowNanos();
    for (const Op& op : *ops) {
      std::string sql;
      double value = 0;
      if (op.write) {
        // Distinct per write and exact in binary: the read-back compares
        // doubles for equality.
        value = 1e6 * (index_ + 1) + static_cast<double>(++writes_) + 0.25;
        sql = UpdateSql(op.key, value);
      } else {
        sql = imon::workload::PointQuery(op.key);
      }
      int64_t t0 = NowNanos();
      auto r = client_->Execute(sql);
      int64_t t1 = NowNanos();
      if (lane != nullptr) {
        lane->Add("server.Client.Execute", Layer::kServer, t0, t1,
                  request_);
        out.queue_depth_max =
            std::max(out.queue_depth_max, queue_depth_->Value());
      }
      ++request_;
      if (op.write && r.ok() && r->affected_rows == 1) {
        last_written[op.key] = value;
      }
      Outcome outcome = Outcome::kOk;
      if (!r.ok()) {
        outcome = r.status().code() == imon::StatusCode::kResourceExhausted
                      ? Outcome::kRefused
                      : Outcome::kError;
        if (!client_->connected()) client_->Connect("127.0.0.1", port_);
      } else if (op.write ? r->affected_rows != 1
                          : r->rows.size() != 1 || r->rows[0].empty() ||
                                r->rows[0][0].AsInt() != op.key) {
        outcome = Outcome::kWrong;
      }
      if (!measured) continue;
      tally.Record(outcome);
      if (outcome == Outcome::kOk) out.lat_us.push_back(Micros(t1 - t0));
      if (probe_sql.size() < kProbeStatements / kClients &&
          request_ % 16 == 0) {
        probe_sql.push_back(sql);
      }
    }
    out.end_ns = NowNanos();
  }

  const int index_;
  Client* client_;
  const uint16_t port_;
  WindowGate* gate_;
  imon::metrics::Gauge* queue_depth_;
  int64_t writes_ = 0;
  int64_t request_ = 0;
  std::thread thread_;
};

}  // namespace

RunResult RunOltpWire(const RunConfig& config, Trace* trace) {
  RunResult result;
  std::unique_ptr<Stack> stack = OpenStack();
  if (stack == nullptr) {
    std::fprintf(stderr, "oltp_wire: set-up failed\n");
    std::exit(1);
  }
  Database* db = stack->db.get();
  const bool traced = trace->enabled();
  ZipfKeys zipf(kProteins, kZipfExponent, StreamSeed(config.seed, 2));
  CounterReader reader(db);

  WindowGate gate(kClients);
  std::vector<std::unique_ptr<ClientWorker>> workers;
  std::vector<std::mt19937_64> rngs;
  std::vector<Trace::Lane*> lanes;
  for (int i = 0; i < kClients; ++i) {
    workers.push_back(std::make_unique<ClientWorker>(
        i, &stack->clients[i], stack->server->port(), &gate,
        db->metrics()->GetGauge("server.queue_depth")));
    workers.back()->Start();
    rngs.emplace_back(StreamSeed(config.seed, 100 + static_cast<uint64_t>(i)));
    lanes.push_back(trace->NewLane());
  }
  // The statements of one window pair, per client: exactly
  // kWritePercent % writes at seeded positions, so windows differ in
  // keys and order but not in their mix, and the quiet end of the windows
  // is not simply the ones that drew the fewest writes.
  auto next_ops = [&](int index) {
    std::mt19937_64& rng = rngs[static_cast<size_t>(index)];
    std::vector<Op> ops(kWindowStatements);
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].write = i < ops.size() * kWritePercent / 100;
    }
    std::shuffle(ops.begin(), ops.end(), rng);
    for (Op& op : ops) {
      op.key = zipf.Next(&rng);
      if (op.write) {
        op.key = op.key - op.key % kClients + index;
        if (op.key >= kProteins) op.key -= kClients;
      }
    }
    return ops;
  };

  // Side A: monitored (untraced runs) / traced (traced runs).
  // Side B: unmonitored / untraced.
  std::vector<Pair> pairs;
  std::vector<std::vector<double>> a_lat;
  std::vector<double> a_s_per_stmt, all_us;
  int64_t queue_depth_max = 0;
  int64_t window_cpu_ns = 0;
  int64_t traced_round_trip_ns = 0;
  int64_t traced_request_ns = 0;
  auto run_pair = [&](bool measured, int64_t pair_index) {
    std::vector<std::vector<Op>> ops;
    for (int i = 0; i < kClients; ++i) ops.push_back(next_ops(i));
    Pair p;
    p.a_first = pair_index % 2 == 0;
    for (int step = 0; step < 2; ++step) {
      bool side_a = (step == 0) == p.a_first;
      bool traced_window = measured && traced && side_a;
      if (!traced) db->monitor()->set_enabled(side_a);
      for (int i = 0; i < kClients; ++i) {
        workers[i]->ops = &ops[i];
        workers[i]->measured = measured;
        workers[i]->lane = traced_window ? lanes[i] : nullptr;
      }
      Counters before;
      if (traced_window) before = reader.Read();
      int64_t cpu0 = ProcessCpuNanos();
      gate.RunWindow();
      window_cpu_ns += ProcessCpuNanos() - cpu0;
      if (traced_window) {
        // The server's request time (execute + encode) is the part of
        // the round trips the program measures, split by the engine's
        // stage counters.
        Counters dw = reader.Read() - before;
        int64_t request_ns = dw.server_request_us * 1000;
        AttributeStages(trace, dw);
        trace->Attribute(Layer::kServer, request_ns - dw.StageSum());
        traced_request_ns += request_ns;
      }
      int64_t start = INT64_MAX, end = 0;
      std::vector<double> lat;
      for (const auto& w : workers) {
        start = std::min(start, w->out.start_ns);
        end = std::max(end, w->out.end_ns);
        lat.insert(lat.end(), w->out.lat_us.begin(), w->out.lat_us.end());
        queue_depth_max = std::max(queue_depth_max, w->out.queue_depth_max);
      }
      (side_a ? p.a : p.b) = Seconds(end - start);
      if (!measured) continue;
      all_us.insert(all_us.end(), lat.begin(), lat.end());
      if (!side_a) continue;
      if (traced) {
        for (double us : lat) {
          traced_round_trip_ns += static_cast<int64_t>(us * 1e3);
        }
      }
      a_s_per_stmt.push_back(
          Ratio(Seconds(end - start), static_cast<double>(lat.size())));
      a_lat.push_back(std::move(lat));
    }
    if (measured) pairs.push_back(p);
  };

  Poller poller(stack->daemon.get(), trace->NewLane());
  for (int64_t i = 0; i < kWarmupPairs; ++i) run_pair(false, i);
  window_cpu_ns = 0;
  Counters c0 = reader.Read();
  imon::daemon::DaemonStats daemon0 = stack->daemon->stats();
  CpuRotation rotation;
  const int64_t span = static_cast<int64_t>(config.seconds) * 1000000000;
  const int64_t start = NowNanos();
  SpreadSetups setups(SetupCount(config.seconds), start, span, &rotation);
  for (int64_t pair = 0; NowNanos() < start + span; ++pair) {
    if (setups.Due(NowNanos())) {
      std::unique_ptr<Stack> other;
      if (!setups.Run([&] { return (other = OpenStack()) != nullptr; })) {
        std::fprintf(stderr, "oltp_wire: set-up failed\n");
        std::exit(1);
      }
    }
    run_pair(true, pair);
  }
  db->monitor()->set_enabled(true);
  poller.Stop();
  result.ops.Merge(poller.ops());
  char note[240];
  std::snprintf(note, sizeof(note),
                "%zu window pairs of %d statements per client over %d "
                "connections, %zu set-ups, %zu daemon polls; 4 busy threads "
                "(2 clients, 1 event, 1 executor)",
                pairs.size(), kWindowStatements, kClients, setups.done(),
                static_cast<size_t>(poller.ops().attempted));
  result.Note(note);
  gate.Stop();
  for (auto& w : workers) w->Join();
  Counters d = reader.Read() - c0;
  imon::daemon::DaemonStats daemon1 = stack->daemon->stats();

  std::map<int64_t, double> last_written;
  std::vector<std::string> probe_sql;
  for (const auto& w : workers) {
    result.ops.Merge(w->tally);
    last_written.insert(w->last_written.begin(), w->last_written.end());
    probe_sql.insert(probe_sql.end(), w->probe_sql.begin(),
                     w->probe_sql.end());
  }
  // Every updated key reads back the last value its owner wrote.
  for (const auto& [key, value] : last_written) {
    auto r = db->Execute("SELECT mol_weight FROM protein WHERE nref_id = " +
                         std::to_string(key));
    bool same = r.ok() && r->rows.size() == 1 && !r->rows[0].empty() &&
                r->rows[0][0].AsDouble() == value;
    result.ops.Record(!r.ok() ? Outcome::kError
                              : same ? Outcome::kOk : Outcome::kWrong);
  }
  // A sample of remote results fingerprints identically to embedded.
  std::mt19937_64 rng(StreamSeed(config.seed, 3));
  for (int i = 0; i < kFingerprintSamples; ++i) {
    int64_t key = zipf.Next(&rng);
    std::string sql = i % 2 == 0
                          ? imon::workload::PointQuery(key)
                          : "SELECT nref_id, mol_weight, seq_length FROM "
                            "protein WHERE nref_id = " +
                                std::to_string(key);
    auto remote = stack->clients[0].Execute(sql);
    auto local = db->Execute(sql);
    if (!remote.ok() || !local.ok()) {
      result.ops.Record(Outcome::kError);
      continue;
    }
    imon::engine::QueryResult remote_qr;
    remote_qr.columns = remote->columns;
    remote_qr.rows = remote->rows;
    result.ops.Record(imon::testing::Fingerprint(remote_qr) ==
                              imon::testing::Fingerprint(*local)
                          ? Outcome::kOk
                          : Outcome::kWrong);
  }
  std::snprintf(note, sizeof(note), "%zu keys read back, %d fingerprints",
                last_written.size(), kFingerprintSamples);
  result.Note(note);

  if (!traced) {
    result.Add("setup_s", setups.QuietSeconds(), "s");
    result.AddLatency(a_lat);
    result.Add("ops_per_s", 1.0 / Quiet(a_s_per_stmt), "1/s");
    result.Add("monitor_ratio", PairedRatio(pairs), "ratio");
    return result;
  }
  imon::metrics::Histogram* request_us =
      db->metrics()->GetHistogram("server.request_micros");
  double requests = static_cast<double>(d.server_requests);
  result.Add("server.requests", requests, "count");
  result.Add("server.request_us_p50",
             static_cast<double>(request_us->ValueAtPercentile(50)), "us");
  // The histogram's p50 is a log2 bucket bound; the mean of the same
  // requests is exact, so the part outside the request is read against it.
  result.Add("server.outside_us_p50",
             Median(all_us) -
                 Ratio(static_cast<double>(d.server_request_us), requests),
             "us");
  result.Add("server.queue_depth_max", static_cast<double>(queue_depth_max),
             "count");
  result.Add("server.queue_rejects",
             static_cast<double>(d.server_queue_rejects), "count");
  result.Add("server.bytes_per_req",
             Ratio(static_cast<double>(d.server_bytes), requests), "B");
  result.Add("server.cpu_us_per_req",
             Ratio(Micros(window_cpu_ns), requests), "us");
  result.Add("engine.plan_cache_hit_ratio", d.PlanCacheHitRatio(), "ratio");
  result.Add("storage.bp_hit_ratio", d.BufferPoolHitRatio(), "ratio");
  result.Add("storage.bp_shard_lock_wait",
             static_cast<double>(d.bp_shard_lock_wait), "count");
  result.Add("txn.lock_waits", static_cast<double>(d.lock_waits), "count");
  result.Add("txn.lock_wait_us", d.LockWaitUs(), "us");
  result.Add("monitor.us_per_stmt", d.MonitorUsPerStatement(), "us");
  result.Add("daemon.poll_ms", Median(poller.poll_ms()), "ms");
  result.Add("daemon.flush_ms", Median(poller.flush_ms()), "ms");
  result.Add("daemon.bytes_per_stmt",
             Ratio(static_cast<double>(daemon1.bytes_written_estimate -
                                       daemon0.bytes_written_estimate),
                   static_cast<double>(d.monitor_statements)),
             "B");

  // Blocking path: the traced windows' round trips. What the server's
  // request time does not cover -- socket read, decode, queue, write and
  // the client itself -- no counter covers yet.
  result.Add("unattributed_share",
             1.0 - Ratio(static_cast<double>(traced_request_ns),
                         static_cast<double>(traced_round_trip_ns)),
             "ratio");
  result.Add("trace_overhead", PairedRatio(pairs), "ratio");
  AddProbeMetrics(ProbeStatementPath(db, probe_sql, nullptr), &result);
  return result;
}

}  // namespace perfbench
