// Tests of the benchmark's statistics helpers (stats.h): the percentile
// ladder, the quiet-end reading over windows, the paired ratio behind
// monitor_ratio, and failure counting.

#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(Range(100), 99), 99);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileLadderTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(0), 0);
  EXPECT_EQ(SupportedPercentile(19), 0);
  EXPECT_EQ(SupportedPercentile(20), 50);
  EXPECT_EQ(SupportedPercentile(99), 50);
  EXPECT_EQ(SupportedPercentile(100), 90);  // tune_cycle's 100 statements
  EXPECT_EQ(SupportedPercentile(999), 90);
  EXPECT_EQ(SupportedPercentile(1000), 99);  // one oltp_wire window
  EXPECT_EQ(SupportedPercentile(9999), 99);
  EXPECT_EQ(SupportedPercentile(10000), 99.9);
  EXPECT_EQ(SupportedPercentile(100000), 99.99);
  EXPECT_EQ(SupportedPercentile(10000000), 99.99);
}

TEST(QuietTest, ReadsTheQuietWindowsWhenMostAreBusy) {
  // 30 windows at the quiet speed, 70 in a busy spell 60 % slower: the
  // median reads the busy speed, the quiet end the quiet one.
  std::vector<double> w;
  for (int i = 0; i < 100; ++i) w.push_back(i % 10 < 3 ? 1.0 : 1.6);
  EXPECT_EQ(Median(w), 1.6);
  EXPECT_EQ(Quiet(w), 1.0);
}

TEST(QuietTest, IsTheFirstPercentileNotTheMinimum) {
  // The 1st percentile of 200 windows is the second fastest: one
  // freak-fast window does not set the reading.
  std::vector<double> w = Range(200);
  w[0] = 0.001;
  EXPECT_EQ(Quiet(w), 2);
  // With fewer than 100 windows it is the fastest.
  EXPECT_EQ(Quiet({3, 1, 2}), 1);
  EXPECT_EQ(Quiet({}), 0);
}

TEST(QuietTest, MovesWhenEveryWindowSlows) {
  std::vector<double> before = Range(200), after;
  for (double v : before) after.push_back(v * 1.1);
  EXPECT_DOUBLE_EQ(Quiet(after) / Quiet(before), 1.1);
}

TEST(TailOverWindowsTest, QuietReadingOfEachWindowsPercentile) {
  // Three clean windows and one with a stall: the stalled window's p99 is
  // huge, the reported tail is a clean window's.
  std::vector<std::vector<double>> windows = {Range(1000), Range(1000),
                                              Range(1000), Range(1000)};
  for (int i = 980; i < 1000; ++i) windows[3][i] = 1e6;
  Tail t = TailOverWindows(windows, 99);
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.windows, 4u);
  EXPECT_EQ(t.min_samples, 1000u);
}

TEST(TailOverWindowsTest, FallsBackToWhatTheSmallestWindowSupports) {
  Tail thin = TailOverWindows({Range(2000), Range(500), {}}, 99);
  EXPECT_EQ(thin.percentile, 90);
  EXPECT_EQ(thin.windows, 2u);
  EXPECT_EQ(thin.min_samples, 500u);
  // p90 of 1..2000 is 1800, of 1..500 is 450; the quiet reading of two is
  // the lower.
  EXPECT_EQ(thin.value, 450);

  Tail tiny = TailOverWindows({Range(5)}, 99);
  EXPECT_EQ(tiny.percentile, 50);
  EXPECT_EQ(tiny.value, 3);

  Tail none = TailOverWindows({{}, {}}, 99);
  EXPECT_EQ(none.windows, 0u);
  EXPECT_EQ(none.value, 0);
}

TEST(PairedRatioTest, MedianOfPairsIgnoresOneSlowWindow) {
  std::vector<Pair> pairs = {{1.10, 1.0, true},
                             {1.12, 1.0, true},
                             {1.11, 1.0, true},
                             {9.00, 1.0, true},
                             {1.09, 1.0, true}};
  EXPECT_DOUBLE_EQ(PairedRatio(pairs), 1.11);
}

TEST(PairedRatioTest, PairingCancelsDrift) {
  // The host slows down 2x between the a and the b run of the third
  // pair. Each side's own median would read 2.2 / 1.0 = 2.2; the pairs
  // read 1.1.
  std::vector<Pair> pairs = {{1.1, 1.0, true},
                             {1.1, 1.0, true},
                             {2.2, 1.0, true},
                             {2.2, 2.0, true},
                             {2.2, 2.0, true}};
  EXPECT_DOUBLE_EQ(PairedRatio(pairs), 1.1);
}

TEST(PairedRatioTest, AlternatingOrderCancelsTheWarmSecondRun) {
  // The second run of each pair is 10 % faster (warm caches), whichever
  // side it is; the true ratio is 1.2.
  std::vector<Pair> pairs;
  for (int i = 0; i < 10; ++i) {
    bool a_first = i % 2 == 0;
    double a = 1.2 * (a_first ? 1.0 : 0.9);
    double b = 1.0 * (a_first ? 0.9 : 1.0);
    pairs.push_back({a, b, a_first});
  }
  EXPECT_NEAR(PairedRatio(pairs), 1.2, 1e-12);
  // One order alone is biased by the warm-up factor.
  std::vector<Pair> a_first_only(pairs.begin(), pairs.begin() + 1);
  EXPECT_NEAR(PairedRatio(a_first_only), 1.2 / 0.9, 1e-12);
}

TEST(PairedRatioTest, FreeIsOneAndMissingIsZero) {
  EXPECT_DOUBLE_EQ(PairedRatio({{2.0, 2.0, true}, {2.5, 2.5, false}}), 1.0);
  EXPECT_EQ(PairedRatio({}), 0);
  EXPECT_EQ(PairedRatio({{0, 1.0, true}, {1.0, 0, false}}), 0);
}

TEST(OpTallyTest, RefusedAndWrongResultsCountAsFailed) {
  OpTally t;
  for (int i = 0; i < 194; ++i) t.Record(Outcome::kOk);
  t.Record(Outcome::kError);
  t.Record(Outcome::kRefused);
  t.Record(Outcome::kRefused);
  t.Record(Outcome::kWrong);
  t.Record(Outcome::kWrong);
  t.Record(Outcome::kWrong);
  EXPECT_EQ(t.attempted, 200);
  EXPECT_EQ(t.errors, 1);
  EXPECT_EQ(t.refused, 2);
  EXPECT_EQ(t.wrong, 3);
  EXPECT_EQ(t.failed(), 6);
  EXPECT_DOUBLE_EQ(t.FailRatio(), 0.03);
}

TEST(OpTallyTest, CleanRunIsZeroAndEmptyRunFails) {
  OpTally clean;
  for (int i = 0; i < 10; ++i) clean.Record(Outcome::kOk);
  EXPECT_EQ(clean.failed(), 0);
  EXPECT_EQ(clean.FailRatio(), 0);
  EXPECT_EQ(OpTally().FailRatio(), 1);
}

TEST(OpTallyTest, MergeSumsEveryField) {
  OpTally a{10, 1, 0, 2};
  a.Merge(OpTally{5, 0, 3, 1});
  EXPECT_EQ(a.attempted, 15);
  EXPECT_EQ(a.errors, 1);
  EXPECT_EQ(a.refused, 3);
  EXPECT_EQ(a.wrong, 3);
  EXPECT_EQ(a.failed(), 7);
}

}  // namespace
}  // namespace perfbench
