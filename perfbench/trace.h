// The benchmark's traced mode: spans recorded from the benchmark's own
// code around each call into a module's public entry point, plus child
// spans derived from counter deltas taken at the same boundaries (the
// engine's per-stage nanos, the server's request time). Nothing is traced
// inside the program itself.
//
// Spans are kept in memory per recording thread (a Lane) and written as
// one Chrome trace file when the run ends. Each module's self time --
// its spans' durations minus what their children cover -- is accumulated
// separately and gives the per-layer breakdown and the unattributed share
// of the end-to-end time.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The program's modules; every span and every attributed nanosecond
/// belongs to one of them.
enum class Layer : int {
  kServer = 0,
  kEngine,
  kSql,
  kOptimizer,
  kExec,
  kStorage,
  kTxn,
  kMonitor,
  kIma,
  kDaemon,
  kAnalyzer,
  kTuner,
};
inline constexpr int kNumLayers = 12;
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";  ///< static string, e.g. "engine.Execute"
  Layer layer = Layer::kEngine;
  int64_t start_ns = 0;  ///< monotonic
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index within the same lane, -1 = root
  int64_t request = 0;   ///< shared by every span of one request
};

class Trace {
 public:
  /// Spans kept per lane; later spans still count toward self times but
  /// are not written (the count of dropped spans is).
  static constexpr size_t kMaxSpansPerLane = 60000;

  /// The span recorder of one thread. Not thread-safe: one per thread.
  class Lane {
   public:
    /// Record a finished span; returns its index (for children) or -1
    /// when the lane is full.
    int64_t Add(const char* name, Layer layer, int64_t start_ns,
                int64_t end_ns, int64_t request, int64_t parent = -1);
    /// Record counter-derived children laid end to end from `start_ns`
    /// under `parent`: one span per (name, layer, duration) triple with a
    /// positive duration.
    struct Part {
      const char* name;
      Layer layer;
      int64_t nanos;
    };
    void AddParts(int64_t parent, int64_t start_ns, int64_t request,
                  const std::vector<Part>& parts);

   private:
    friend class Trace;
    int id_ = 0;
    std::vector<Span> spans_;
    int64_t dropped_ = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A new lane with a stable address (owned by the trace); null when
  /// tracing is off, which makes every recording call a no-op.
  Lane* NewLane();

  /// Credit `nanos` of self time to `layer` (thread-safe).
  void Attribute(Layer layer, int64_t nanos);
  int64_t SelfNanos(Layer layer) const;
  int64_t AttributedNanos() const;

  /// Write every lane's spans as a Chrome trace (chrome://tracing,
  /// Perfetto) with `header_json` -- a JSON object -- as its metadata.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::array<std::atomic<int64_t>, kNumLayers> self_ns_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
