// Tests for the obs v2 streaming-telemetry core: log-bucketed histograms
// (bounded memory, <1% quantile error) and windowed time series on the
// simulated clock (window-boundary edge cases, clock jumps, carry-forward
// gauges).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "obs/timeseries.hpp"

namespace clflow::obs {
namespace {

// ------------------------------------------------------- LogHistogram

double ExactQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

TEST(LogHistogram, TracksExactCountSumMinMax) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(LogHistogram, QuantilesWithinOnePercentOfExact) {
  // A long-tailed latency-like distribution across 4 decades: the gamma
  // = 1.02 bucketing must keep every common quantile within 1% relative
  // error of the exact nearest-rank answer.
  Rng rng(2021);
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.NextDouble() * 9.0);  // [1, e^9)
    h.Observe(v);
    exact.push_back(v);
  }
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double want = ExactQuantile(exact, q);
    const double got = h.Quantile(q);
    EXPECT_LT(std::abs(got - want) / want, 0.01) << "q=" << q;
  }
}

TEST(LogHistogram, BoundedBucketsRegardlessOfObservations) {
  Rng rng(7);
  LogHistogram h;
  for (int i = 0; i < 100000; ++i) {
    h.Observe(std::exp(rng.NextDouble() * 9.0));
  }
  // 4 decades at 2% resolution is a few hundred buckets, never 100k.
  EXPECT_LT(h.bucket_count(), 600u);
}

TEST(LogHistogram, ZeroAndNegativeLandInTheZeroBucket) {
  LogHistogram h;
  h.Observe(0.0);
  h.Observe(-3.0);
  h.Observe(5.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  // Rank 1 and 2 are the non-positive observations.
  EXPECT_LE(h.Quantile(0.5), 0.0);
}

// Pinned quantiles: the values below were recorded from the map-backed
// bucket store, so any change of bucket layout must keep Quantile() and
// bucket_count() identical.

LogHistogram Observed(const std::vector<double>& values) {
  LogHistogram h;
  for (double v : values) h.Observe(v);
  return h;
}

/// The quantile at every rank: the bucket of each sample, in rank order.
std::vector<double> Ranks(const LogHistogram& h) {
  std::vector<double> ranks;
  const auto n = static_cast<double>(h.count());
  for (std::int64_t r = 1; r <= h.count(); ++r) {
    ranks.push_back(h.Quantile(static_cast<double>(r) / n));
  }
  return ranks;
}

TEST(LogHistogram, PinnedWhenSamplesGoBelowTheFirstBucket) {
  // The first sample fixes the lowest bucket; later samples reach down
  // four decades below it and up one above it.
  const LogHistogram h =
      Observed({40.0, 12.5, 3.0, 0.75, 0.01, 1e-4, 250.0, 0.3});
  EXPECT_EQ(h.Quantile(0.5), 0.75040809347948123);
  EXPECT_EQ(h.Quantile(0.99), 248.39785182788876);
  EXPECT_EQ(h.bucket_count(), 8u);
}

TEST(LogHistogram, PinnedWithZeroAndNegativeSamples) {
  const LogHistogram h =
      Observed({-2.5, 0.0, 7.0, -0.25, 0.0, 1500.0, 3.5, 0.004});
  EXPECT_EQ(h.Quantile(0.25), -2.5);
  EXPECT_EQ(h.Quantile(0.5), -2.5);
  EXPECT_EQ(h.Quantile(0.99), 1500.0);
  EXPECT_EQ(h.bucket_count(), 5u);
}

TEST(LogHistogram, ExtremeSamplesKeepTheBucketRangeBounded) {
  LogHistogram h;
  h.Observe(std::numeric_limits<double>::denorm_min());
  h.Observe(std::numeric_limits<double>::max());
  h.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.Quantile(0.0), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(h.Quantile(1.0), std::numeric_limits<double>::infinity());
}

TEST(LogHistogram, PinnedAfterClearAndReuse) {
  LogHistogram h = Observed({40.0, 12.5, 3.0, 0.75, 0.01, 1e-4, 250.0});
  h.Clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket_count(), 0u);
  EXPECT_TRUE(Ranks(h).empty());
  for (double v : {5.0, 6.0, 7.0, 5000.0}) h.Observe(v);
  EXPECT_EQ(Ranks(h), Ranks(Observed({5.0, 6.0, 7.0, 5000.0})));
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 + 6.0 + 7.0 + 5000.0);
  EXPECT_EQ(h.Quantile(0.5), 6.0022702358465203);
  EXPECT_EQ(h.Quantile(0.99), 5000.0);
  EXPECT_EQ(h.bucket_count(), 4u);
}

// -------------------------------------------------------- TimeSeries

WindowSpec MsSpec(std::size_t windows = 8) {
  return WindowSpec{SimTime::Ms(1.0), windows};
}

TEST(TimeSeries, CounterAccumulatesWithinAWindow) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec());
  ts.Record(SimTime::Us(100.0));
  ts.Record(SimTime::Us(900.0), 2.0);
  const auto windows = ts.Windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].value, 3.0);
  EXPECT_EQ(windows[0].count, 2);
  EXPECT_DOUBLE_EQ(ts.Total(), 3.0);
}

TEST(TimeSeries, ClockJumpZeroFillsEmptyWindows) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec());
  ts.Record(SimTime::Ms(0.5));
  ts.Record(SimTime::Ms(5.5));  // jumps over windows 1..4
  const auto windows = ts.Windows();
  ASSERT_EQ(windows.size(), 6u);
  EXPECT_DOUBLE_EQ(windows[0].value, 1.0);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(windows[i].value, 0.0) << "window " << i;
    EXPECT_EQ(windows[i].count, 0) << "window " << i;
  }
  EXPECT_DOUBLE_EQ(windows[5].value, 1.0);
}

TEST(TimeSeries, RingEvictsOldWindowsButKeepsTotals) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec(4));
  for (int w = 0; w < 10; ++w) {
    ts.Record(SimTime::Ms(static_cast<double>(w) + 0.5));
  }
  EXPECT_EQ(ts.Windows().size(), 4u);   // ring bound
  EXPECT_DOUBLE_EQ(ts.Total(), 10.0);   // totals survive eviction
  EXPECT_EQ(ts.base_index(), 6);
  EXPECT_EQ(ts.last_index(), 9);
}

TEST(TimeSeries, LateRecordsAreDroppedAndCounted) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec(4));
  ts.Record(SimTime::Ms(9.5));
  ts.Record(SimTime::Ms(1.5));  // window 1 long evicted
  EXPECT_EQ(ts.dropped_late(), 1);
  EXPECT_DOUBLE_EQ(ts.Total(), 1.0);  // the late record is not folded in
}

TEST(TimeSeries, SumOverLastAndRange) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec(8));
  for (int w = 0; w < 6; ++w) {
    ts.Record(SimTime::Ms(static_cast<double>(w) + 0.5),
              static_cast<double>(w + 1));
  }
  EXPECT_DOUBLE_EQ(ts.SumOverRange(ts.last_index() - 1, ts.last_index()),
                   5.0 + 6.0);
  EXPECT_DOUBLE_EQ(ts.SumOverRange(-100, 100), 21.0);  // clamped to retained
  EXPECT_DOUBLE_EQ(ts.SumOverRange(1, 3), 2.0 + 3.0 + 4.0);
  // Ranges clamp to what the ring still holds.
  EXPECT_DOUBLE_EQ(ts.SumOverRange(-5, 0), 1.0);
}

TEST(TimeSeries, RateOverUsesTheTrailingSpan) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec(8));
  for (int w = 0; w < 4; ++w) {
    ts.Record(SimTime::Ms(static_cast<double>(w) + 0.5), 10.0);
  }
  // 20 events over the last 2ms.
  EXPECT_DOUBLE_EQ(ts.RateOver(SimTime::Ms(2.0)), 10000.0);
}

TEST(TimeSeries, GaugeCarriesForwardAcrossEmptyWindows) {
  TimeSeries ts(TimeSeries::Kind::kGauge, MsSpec());
  ts.Record(SimTime::Ms(0.5), 3.0);
  ts.Record(SimTime::Ms(4.5), 7.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(SimTime::Ms(0.9)), 3.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(SimTime::Ms(2.5)), 3.0);  // carried forward
  EXPECT_DOUBLE_EQ(ts.ValueAt(SimTime::Ms(4.9)), 7.0);
}

TEST(TimeSeries, EmptySeriesIsWellDefined) {
  TimeSeries ts(TimeSeries::Kind::kCounter, MsSpec());
  EXPECT_FALSE(ts.has_data());
  EXPECT_TRUE(ts.Windows().empty());
  EXPECT_DOUBLE_EQ(ts.Total(), 0.0);
  EXPECT_DOUBLE_EQ(ts.SumOverRange(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(ts.RateOver(SimTime::Ms(1.0)), 0.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(SimTime::Ms(1.0)), 0.0);
}

}  // namespace
}  // namespace clflow::obs
