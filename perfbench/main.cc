// The benchmark program. Usage:
//
//   perfbench --workload point_embedded|oltp_wire|tune_cycle --seed N
//             --seconds N --trace 0|1 [--trace-out FILE]
//
// Prints notes and a host line, then as its last line one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name:
//    {"value": v, "unit": u}, ...}}
// With --trace 0 the metrics are the workload's end-to-end metrics; with
// --trace 1 the per-layer metrics the workload measures, and the spans go
// to --trace-out. Exits 1 when any operation failed or returned a wrong
// result.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "g++ " __VERSION__
#endif

namespace perfbench {
namespace {

constexpr std::pair<const char*, RunResult (*)(const RunConfig&, Trace*)>
    kWorkloads[] = {{"point_embedded", RunPointEmbedded},
                    {"oltp_wire", RunOltpWire},
                    {"tune_cycle", RunTuneCycle}};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "point_embedded|oltp_wire|tune_cycle --seed N --seconds N "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

/// The host and run a result belongs to, with the evidence that tells a
/// run inside a host slow spell: steal ticks over the run and the
/// reference kernel's time before and after it.
struct HostEvidence {
  int64_t steal_before = StealTicks();
  double kernel_ms_before = ReferenceKernelMs();
  int64_t steal_ticks = 0;
  double kernel_ms_after = 0;

  void Finish() {
    int64_t after = StealTicks();
    steal_ticks = steal_before < 0 || after < 0 ? -1 : after - steal_before;
    kernel_ms_after = ReferenceKernelMs();
  }
};

std::string HostJson(const RunConfig& config, const HostEvidence& host) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
                "\"steal_ticks\": %lld, \"ref_kernel_ms_before\": %.2f, "
                "\"ref_kernel_ms_after\": %.2f}",
                ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0,
                static_cast<long long>(host.steal_ticks),
                host.kernel_ms_before, host.kernel_ms_after);
  return buf;
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.ops.failed() == 0 ? "true" : "false",
              static_cast<long long>(result.ops.attempted),
              static_cast<long long>(result.ops.failed()));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    std::string flag = argv[i];
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      long s = std::strtol(value.c_str(), &end, 10);
      have_seconds = end != value.c_str() && *end == '\0' && s >= 1 &&
                     s <= 60;
      config.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds (1..60) and --trace are required");
  }

  RunResult (*run)(const RunConfig&, Trace*) = nullptr;
  for (const auto& [name, fn] : kWorkloads) {
    if (config.workload == name) run = fn;
  }
  if (run == nullptr) Usage("unknown workload");
  HostEvidence host;
  Trace trace(config.trace);
  RunResult result = run(config, &trace);
  host.Finish();

  if (!trace_out.empty() && !trace.Write(trace_out, HostJson(config, host))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }

  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("fail_ratio: %.6g (%lld of %lld operations: %lld errors, "
              "%lld refused, %lld wrong results)\n",
              result.ops.FailRatio(),
              static_cast<long long>(result.ops.failed()),
              static_cast<long long>(result.ops.attempted),
              static_cast<long long>(result.ops.errors),
              static_cast<long long>(result.ops.refused),
              static_cast<long long>(result.ops.wrong));
  std::printf("host: %s\n", HostJson(config, host).c_str());
  PrintResult(result);
  std::fflush(stdout);
  return result.ops.failed() == 0 ? 0 : 1;
}
