// Figure 4 — "System Performance": overhead of the integrated monitoring.
//
// Three engine setups, as in the paper:
//   Original    — monitoring compiled out (runtime-disabled here)
//   Monitoring  — sensors enabled
//   Daemon      — sensors enabled + storage daemon persisting to the
//                 workload DB in the background
// Three tests:
//   "50"   — the 50 complex NREF2J/NREF3J join queries
//   "50k"  — simple two-table joins, each with a distinct literal (every
//            statement is new to the monitor)
//   "1m"   — primary-key point selects (pure statement throughput)
//
// All three setups are loaded up front. Each repetition of a test runs
// its statements in kChunks chunks, and every chunk runs on all three
// setups back to back (cycling through all six orders, so each setup
// holds each position equally often), so allocator/CPU
// warm-up and host slow spells affect every setup equally; the paper
// "repeated three times to minimize local anomalies".
//
// Paper shapes: <1% overhead for "50"/"50k"; ~+11% (Monitoring) and
// ~+17% (Daemon) for "1m".
//
// Usage: fig4_overhead [--tests=50,50k,1m]   (default: all three)
//
// Writes BENCH_fig4.json: the host block plus, per test run, the
// Monitoring and Daemon medians as ratios to Original (1.0 = no
// overhead); with the 1m test also the spread of its Monitoring ratio
// over the repetitions. scripts/tier1.sh runs `--tests=1m` and gates
// monitoring_ratio_1m with an absolute ceiling.

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "daemon/daemon.h"
#include "ima/ima.h"
#include "workload/nref.h"

namespace imon {
namespace {

using bench::MustExec;
using bench::Scaled;
using engine::Database;
using engine::DatabaseOptions;

/// One of the paper's three tests: `count` statements per timed run,
/// `warmup` of them executed once while the setups are prepared.
struct Test {
  const char* name = "";
  int64_t count = 0;
  int64_t warmup = 0;
  std::function<std::string(int64_t)> statement;
};

struct Setup {
  const char* name = "";
  bool monitoring = false;
  bool daemon = false;
  std::unique_ptr<Database> db;
  std::unique_ptr<Database> workload_db;
  std::unique_ptr<daemon::StorageDaemon> storage_daemon;
  /// Seconds per repetition, one vector per selected test.
  std::vector<std::vector<double>> seconds;
};

double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Per-repetition ratios vs the base setup, ascending: both sides of each
/// ratio ran back to back, so environment drift cancels.
std::vector<double> Ratios(const std::vector<double>& v,
                           const std::vector<double>& base) {
  std::vector<double> ratios;
  for (size_t i = 0; i < v.size(); ++i) ratios.push_back(v[i] / base[i]);
  std::sort(ratios.begin(), ratios.end());
  return ratios;
}

double MedianRatio(const std::vector<double>& v,
                   const std::vector<double>& base) {
  std::vector<double> ratios = Ratios(v, base);
  return ratios[ratios.size() / 2];
}

void Prepare(Setup* setup, const workload::NrefConfig& nref,
             const std::vector<Test>& tests) {
  DatabaseOptions options;
  options.monitor.enabled = setup->monitoring;
  setup->db = std::make_unique<Database>(options);
  if (setup->monitoring) {
    if (!ima::RegisterImaTables(setup->db.get()).ok()) std::exit(1);
  }
  if (!workload::SetupNref(setup->db.get(), nref).ok()) {
    std::fprintf(stderr, "fig4: NREF setup failed\n");
    std::exit(1);
  }
  if (setup->daemon) {
    DatabaseOptions wl_options;
    wl_options.monitor.enabled = false;
    setup->workload_db = std::make_unique<Database>(wl_options);
    daemon::DaemonConfig config;
    // Scaled from the paper's 30 s interval over minutes-long tests to
    // our seconds-long tests; flush every 4th poll ("disk only every
    // few minutes").
    config.poll_interval = std::chrono::milliseconds(1000);
    config.polls_per_flush = 4;
    setup->storage_daemon = std::make_unique<daemon::StorageDaemon>(
        setup->db.get(), setup->workload_db.get(), config);
    if (!setup->storage_daemon->Initialize().ok()) std::exit(1);
    setup->storage_daemon->Start();
  }
  // Warm-up pass.
  for (const Test& test : tests) {
    for (int64_t i = 0; i < test.warmup; ++i) {
      MustExec(setup->db.get(), test.statement(i));
    }
  }
  setup->seconds.assign(tests.size(), {});
}

/// Tests named in a comma-separated `list`, in the paper's order.
std::vector<Test> SelectTests(const std::vector<Test>& all,
                              const std::string& list) {
  std::vector<Test> out;
  for (const Test& test : all) {
    if (("," + list + ",").find(std::string(",") + test.name + ",") !=
        std::string::npos) {
      out.push_back(test);
    }
  }
  return out;
}

}  // namespace
}  // namespace imon

int main(int argc, char** argv) {
  using namespace imon;
  std::string selected = "50,50k,1m";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tests=", 8) == 0) {
      selected = argv[i] + 8;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  bench::PrintHeader("Figure 4", "system performance: Original vs "
                                 "Monitoring vs Daemon");

  workload::NrefConfig nref;
  nref.proteins = Scaled(8000);
  nref.taxa = 200;
  const int64_t join_count = Scaled(2000);   // paper: 50,000
  const int64_t point_count = Scaled(40000); // paper: 1,000,000
  constexpr int kReps = 5;

  const std::vector<std::string> queries = workload::ComplexQuerySet(nref, 50);
  auto join = [&](int64_t i) {
    return workload::SimpleJoinQuery(i % nref.proteins);
  };
  auto point = [&](int64_t i) {
    return workload::PointQuery(i % nref.proteins);
  };
  const std::vector<Test> tests = SelectTests(
      {{"50", 50, 5, [&](int64_t i) { return queries[i]; }},
       {"50k", join_count, 500, join},
       {"1m", point_count, 500, point}},
      selected);
  if (tests.empty()) {
    std::fprintf(stderr, "fig4: no test selected by --tests=%s\n",
                 selected.c_str());
    return 2;
  }

  std::printf("workload: %lld proteins; tests:",
              static_cast<long long>(nref.proteins));
  for (const Test& test : tests) {
    std::printf(" %s (%lld statements)", test.name,
                static_cast<long long>(test.count));
  }
  std::printf("; %d repetitions (min)\n\n", kReps);

  std::array<Setup, 3> setups;
  setups[0].name = "Original";
  setups[1].name = "Monitoring";
  setups[1].monitoring = true;
  setups[2].name = "Daemon";
  setups[2].monitoring = true;
  setups[2].daemon = true;
  for (Setup& s : setups) {
    std::printf("preparing %-10s ...\n", s.name);
    Prepare(&s, nref, tests);
  }

  // Each chunk runs the setups in one of the six orders, and every order
  // comes up kChunks / 6 times, so each setup holds each position equally
  // often.
  static constexpr std::array<std::array<size_t, 3>, 6> kOrders = {
      {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}};
  constexpr int64_t kChunks = 24;
  static_assert(kChunks % static_cast<int64_t>(kOrders.size()) == 0);
  for (int rep = 0; rep < kReps; ++rep) {
    std::printf("repetition %d/%d ...\n", rep + 1, kReps);
    for (size_t t = 0; t < tests.size(); ++t) {
      const Test& test = tests[t];
      std::array<int64_t, 3> nanos{};
      for (int64_t chunk = 0; chunk < kChunks; ++chunk) {
        const int64_t begin = test.count * chunk / kChunks;
        const int64_t end = test.count * (chunk + 1) / kChunks;
        for (size_t which : kOrders[chunk % kOrders.size()]) {
          int64_t start = MonotonicNanos();
          for (int64_t i = begin; i < end; ++i) {
            MustExec(setups[which].db.get(), test.statement(i));
          }
          nanos[which] += MonotonicNanos() - start;
        }
      }
      for (size_t k = 0; k < setups.size(); ++k) {
        setups[k].seconds[t].push_back(static_cast<double>(nanos[k]) / 1e9);
      }
    }
  }
  for (Setup& s : setups) {
    if (s.storage_daemon != nullptr) s.storage_daemon->Stop();
  }

  std::printf("\nabsolute seconds (min of %d):\n", kReps);
  std::printf("  %-6s %12s %12s %12s\n", "test", "Original", "Monitoring",
              "Daemon");
  for (size_t t = 0; t < tests.size(); ++t) {
    std::printf("  %-6s %12.3f %12.3f %12.3f\n", tests[t].name,
                Min(setups[0].seconds[t]), Min(setups[1].seconds[t]),
                Min(setups[2].seconds[t]));
  }

  std::printf("\nrelative to Original (median of per-repetition ratios; "
              "paper Fig. 4, 100%% = Original):\n");
  bench::JsonWriter json("fig4");
  for (size_t t = 0; t < tests.size(); ++t) {
    const std::vector<double>& base = setups[0].seconds[t];
    double monitoring = MedianRatio(setups[1].seconds[t], base);
    double daemon = MedianRatio(setups[2].seconds[t], base);
    std::printf("  %-6s %11s%% %11.1f%% %11.1f%%\n", tests[t].name, "100.0",
                100.0 * monitoring, 100.0 * daemon);
    json.Metric(std::string("monitoring_ratio_") + tests[t].name, monitoring,
                "ratio");
    json.Metric(std::string("daemon_ratio_") + tests[t].name, daemon,
                "ratio");
    if (std::strcmp(tests[t].name, "1m") == 0) {
      std::vector<double> ratios = Ratios(setups[1].seconds[t], base);
      json.Metric("monitoring_ratio_1m_min", ratios.front(), "ratio");
      json.Metric("monitoring_ratio_1m_max", ratios.back(), "ratio");
      json.Metric("original_1m_s", Min(base), "s");
    }
  }
  std::printf("\npaper shape: 50/50k within ~1%% of Original; 1m ~111%% "
              "(Monitoring) and ~117%% (Daemon)\n");
  json.Write();
  return 0;
}
