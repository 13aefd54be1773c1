// Statistics helpers of the benchmark: percentiles and the tail ladder,
// the quiet-end reading over windows, the paired ratio behind
// monitor_ratio and trace_overhead, and operation tallies. Header-only
// and free of imon dependencies so tests/stats_test.cc can check them
// without building the engine.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Takes a copy so callers keep their sample order.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

/// The reporting rule for a latency tail: the highest percentile of the
/// ladder 50, 90, 99, 99.9, 99.99 that still has at least ten samples
/// beyond it, so a tail is never read off a handful of outliers. Returns
/// 0 when even the median lacks ten samples above it (n < 20).
inline double SupportedPercentile(size_t samples) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 90, 50};
  for (double p : kLadder) {
    double beyond = static_cast<double>(samples) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 0;
}

/// Where over its windows (blocks, window pairs, cycles, set-ups) a run
/// reads a timing, as a percentile of the per-window values, lower being
/// faster. Co-tenants of a shared host slow memory-bound work by tens of
/// percent for seconds at a time, and how much of a run falls into such
/// spells differs from run to run, so a median over windows jumps
/// between the quiet and the busy speed. The 1st percentile reads the
/// quiet speed as long as a hundredth of the run is quiet; a change that
/// slows every window still moves it. With fewer than 100 windows it is
/// the fastest window. Over six 20-s point_embedded runs the spread
/// (interquartile range over median) of the blocks' p50 read at the
/// 1st, 5th and 25th percentile was 0.026, 0.038 and 0.066; of their p90
/// 0.034, 0.075 and 0.18.
inline constexpr double kQuietPercentile = 1;

/// The quiet-end reading of per-window values: their kQuietPercentile.
inline double Quiet(const std::vector<double>& per_window) {
  return Percentile(per_window, kQuietPercentile);
}

/// A percentile read window by window: in each window the percentile
/// `wanted` (or the highest the smallest window supports), then the
/// quiet-end reading over the windows. Empty windows are skipped.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t windows = 0;
  size_t min_samples = 0;  ///< in the smallest window used
};

inline Tail TailOverWindows(const std::vector<std::vector<double>>& windows,
                            double wanted) {
  Tail t;
  std::vector<const std::vector<double>*> used;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    t.min_samples = used.empty() ? w.size() : std::min(t.min_samples, w.size());
    used.push_back(&w);
  }
  t.windows = used.size();
  if (used.empty()) return t;
  t.percentile = std::min(wanted, SupportedPercentile(t.min_samples));
  if (t.percentile == 0) t.percentile = 50;
  std::vector<double> per_window;
  for (const auto* w : used) per_window.push_back(Percentile(*w, t.percentile));
  t.value = Quiet(per_window);
  return t;
}

/// How one operation ended. Refused (the server's queue was full) and
/// wrong results count as failures just as error statuses do.
enum class Outcome { kOk, kError, kRefused, kWrong };

/// Operations attempted by a workload and how the failed ones failed.
struct OpTally {
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t refused = 0;
  int64_t wrong = 0;

  void Record(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk: break;
      case Outcome::kError: ++errors; break;
      case Outcome::kRefused: ++refused; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }
  int64_t failed() const { return errors + refused + wrong; }
  /// failed / attempted; 1 when nothing was attempted (a run that did no
  /// work is a failed run).
  double FailRatio() const {
    if (attempted <= 0) return 1.0;
    return static_cast<double>(failed()) / static_cast<double>(attempted);
  }
  void Merge(const OpTally& other) {
    attempted += other.attempted;
    errors += other.errors;
    refused += other.refused;
    wrong += other.wrong;
  }
};

/// One pair of timings of identical work run back to back: `a` with the
/// feature under test (monitor on, tracing on), `b` without.
struct Pair {
  double a = 0;
  double b = 0;
  bool a_first = true;
};

/// The cost of the feature as a/b over pairs (monitor_ratio: the paper's
/// Fig. 4, 1.0 = free). Pairing cancels drift in the host's speed and
/// the median keeps one preempted window from moving the ratio. The
/// second run of a pair finds caches warmed by the first, a factor c
/// that favours whichever side runs second; the pairs alternate sides,
/// so the median ratio of a-first pairs reads (a/b)/c and that of
/// b-first pairs (a/b)*c, and their geometric mean is a/b. With pairs of
/// one order only, that order's median. 0 when there is no usable pair.
inline double PairedRatio(const std::vector<Pair>& pairs) {
  std::vector<double> a_first, b_first;
  for (const Pair& p : pairs) {
    if (p.a <= 0 || p.b <= 0) continue;
    (p.a_first ? a_first : b_first).push_back(p.a / p.b);
  }
  if (a_first.empty() && b_first.empty()) return 0;
  if (a_first.empty()) return Median(b_first);
  if (b_first.empty()) return Median(a_first);
  return std::sqrt(Median(a_first) * Median(b_first));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
