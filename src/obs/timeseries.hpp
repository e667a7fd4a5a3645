// Streaming time-series telemetry (obs v2).
//
// The snapshot-oriented registry (metrics.hpp) answers "what happened";
// a serving loop needs "what is happening *now*": request rates over the
// last few milliseconds, p99 per window, utilization timelines. Two
// primitives cover that with bounded memory on the simulated clock:
//
//   * LogHistogram — log-bucketed value distribution. Bucket i covers
//     [γ^i, γ^(i+1)) with γ = 1.02, so a quantile reported as the
//     geometric bucket midpoint γ^(i+0.5) is within √γ − 1 ≈ 0.995% < 1%
//     relative error of any sample in the bucket. Counts live in one
//     dense vector over the bucket range [lo, hi] seen so far, so memory
//     is O(hi - lo), independent of sample count (~1160 buckets span 1 ps
//     to 10^10 us), and an observation is an index, not a tree insert.
//     Counts are integers, so histograms merged in a fixed shard order
//     digest identically at any thread count.
//
//   * TimeSeries — a ring of fixed-resolution windows over SimTime.
//     Counters accumulate per-window sums (rate = sum/span); gauges keep
//     the last value per window and step-interpolate. The ring retains
//     the most recent `windows` windows; forward clock jumps (e.g. a
//     simulated reprogram charge) zero-fill the skipped windows, and
//     records older than the ring are counted in dropped_late() rather
//     than silently folded into the wrong window.
//
// Both are mergeable (shard-local instances combined in shard order) and
// expose FNV digests over their integer state so determinism tests can
// compare jobs=1 against jobs=N runs bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"

namespace clflow::obs {

/// Windowing geometry shared by every time series of one campaign:
/// fixed resolution on the simulated clock, ring capacity in windows.
struct WindowSpec {
  SimTime resolution = SimTime::Ms(1.0);
  std::size_t windows = 512;

  [[nodiscard]] bool operator==(const WindowSpec&) const = default;
};

/// Bounded-memory value distribution over logarithmic buckets.
/// Not thread-safe.
class LogHistogram {
 public:
  /// Bucket width ratio. Quantile error ≤ √kGrowth − 1 (< 1%).
  static constexpr double kGrowth = 1.02;

  void Observe(double value);
  void Clear();

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Nearest-rank quantile (q in [0,1]) as the geometric midpoint of the
  /// rank's bucket, clamped to the observed [min, max]. Relative error vs
  /// the exact nearest-rank sample is ≤ √kGrowth − 1. Non-positive
  /// samples live in a dedicated bucket reported as their exact value
  /// only when all samples there are equal (tracked min suffices: the
  /// bucket reports 0 or the single non-positive min).
  [[nodiscard]] double Quantile(double q) const;

  /// Distinct buckets in use (the memory bound).
  [[nodiscard]] std::size_t bucket_count() const;

 private:
  static std::int32_t BucketIndex(double v);
  static double BucketMid(std::int32_t index);
  /// Adds `n` to bucket `index`, widening [lo, hi] to cover it.
  void Add(std::int32_t index, std::int64_t n);

  /// Counts of buckets lo_ .. lo_ + size - 1 (v > 0); zero entries are
  /// buckets inside the range that hold no sample.
  std::vector<std::int64_t> buckets_;
  std::int32_t lo_ = 0;
  std::size_t used_ = 0;         ///< non-zero entries of buckets_
  std::int64_t zero_count_ = 0;  ///< v <= 0
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Ring-buffer of fixed-resolution windows on the simulated clock.
/// Not thread-safe.
class TimeSeries {
 public:
  enum class Kind { kCounter, kGauge };

  TimeSeries() : TimeSeries(Kind::kCounter, WindowSpec{}) {}
  TimeSeries(Kind kind, WindowSpec spec);

  /// Folds `value` into the window containing `t` (times before the
  /// epoch clamp to window 0). Counters add; gauges keep the last value
  /// recorded in the window. Advancing past the newest window zero-fills
  /// the gap and evicts the oldest windows; a record older than the ring
  /// is dropped and counted.
  void Record(SimTime t, double value = 1.0);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const WindowSpec& spec() const { return spec_; }

  /// Window index containing `t`.
  [[nodiscard]] std::int64_t WindowOf(SimTime t) const;

  struct Window {
    std::int64_t index = 0;   ///< absolute window index since epoch
    double start_us = 0.0;    ///< window start on the simulated clock
    double value = 0.0;       ///< counter: sum; gauge: last value
    std::int64_t count = 0;   ///< records folded into this window
  };

  /// Retained windows oldest→newest, including empty (zero) windows
  /// between the first and last record.
  [[nodiscard]] std::vector<Window> Windows() const;

  /// True once at least one record has landed.
  [[nodiscard]] bool has_data() const { return last_index_ >= base_index_; }
  [[nodiscard]] std::int64_t base_index() const { return base_index_; }
  [[nodiscard]] std::int64_t last_index() const { return last_index_; }
  [[nodiscard]] std::int64_t dropped_late() const { return dropped_late_; }

  /// All-time counter total: every record that landed in a window, even
  /// ones the ring has since evicted (late-dropped records excluded).
  /// Monotone, so a Prometheus `_total` derived from it never decreases.
  [[nodiscard]] double Total() const;

  /// Counter sum over the absolute window range [first, last]; windows
  /// outside the retained span contribute 0.
  [[nodiscard]] double SumOverRange(std::int64_t first,
                                    std::int64_t last) const;

  /// Counter rate per second over the trailing `span` of simulated time
  /// (ending at the newest retained window). Sums whole windows that
  /// overlap the span and divides by the covered duration.
  [[nodiscard]] double RateOver(SimTime span) const;

  /// Gauge value at `t`: the last value recorded in the window of `t` or
  /// the nearest earlier non-empty window (0 before any record).
  [[nodiscard]] double ValueAt(SimTime t) const;

 private:
  [[nodiscard]] std::size_t Slot(std::int64_t index) const {
    return static_cast<std::size_t>(index % static_cast<std::int64_t>(
                                                spec_.windows));
  }
  /// Moves the ring forward so `index` is retained, zero-filling new
  /// windows and advancing base past evicted ones.
  void AdvanceTo(std::int64_t index);

  Kind kind_ = Kind::kCounter;
  WindowSpec spec_;
  std::vector<double> values_;
  std::vector<std::int64_t> counts_;
  std::int64_t base_index_ = 0;  ///< oldest retained window
  std::int64_t last_index_ = -1; ///< newest retained window (-1 = empty)
  std::int64_t dropped_late_ = 0;
  double total_ = 0.0;  ///< all-time counter total (eviction-proof)
};

/// Human-readable kind name ("counter" / "gauge") for exporters.
[[nodiscard]] const char* TimeSeriesKindName(TimeSeries::Kind kind);

}  // namespace clflow::obs
