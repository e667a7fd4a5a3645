#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "common/fnv.hpp"

namespace clflow::obs {

namespace {

const double kLogGrowth = std::log(LogHistogram::kGrowth);

/// Every finite positive double falls in buckets -37593 .. 35842; +inf
/// (whose index would not fit an int32) lands in the top one, so the
/// dense bucket range stays bounded for any sample.
constexpr double kMaxBucketIndex = 40000.0;

}  // namespace

// ---------------------------------------------------------------------------
// LogHistogram

std::int32_t LogHistogram::BucketIndex(double v) {
  return static_cast<std::int32_t>(std::min(
      std::floor(std::log(v) / kLogGrowth), kMaxBucketIndex));
}

double LogHistogram::BucketMid(std::int32_t index) {
  return std::exp((static_cast<double>(index) + 0.5) * kLogGrowth);
}

void LogHistogram::Observe(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value > 0.0) {
    Add(BucketIndex(value), 1);
  } else {
    ++zero_count_;
  }
}

void LogHistogram::Add(std::int32_t index, std::int64_t n) {
  if (buckets_.empty()) {
    lo_ = index;
    buckets_.push_back(0);
  } else if (index < lo_) {
    buckets_.insert(buckets_.begin(), static_cast<std::size_t>(lo_ - index),
                    0);
    lo_ = index;
  } else if (const auto hi = lo_ + static_cast<std::int64_t>(buckets_.size());
             index >= hi) {
    buckets_.resize(buckets_.size() + static_cast<std::size_t>(index - hi + 1),
                    0);
  }
  std::int64_t& bucket = buckets_[static_cast<std::size_t>(index - lo_)];
  if (bucket == 0) ++used_;
  bucket += n;
}

void LogHistogram::Clear() { *this = LogHistogram(); }

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto n = static_cast<double>(count_);
  auto rank = static_cast<std::int64_t>(std::ceil(q * n));
  rank = std::clamp<std::int64_t>(rank, 1, count_);
  // The zero bucket (v <= 0) sorts below every positive bucket. All its
  // samples are <= 0 and min_ is the smallest sample overall, so when the
  // rank lands there the best bounded-memory answer is min_ clamped up to
  // 0 -- exact whenever the bucket holds a single distinct value.
  if (rank <= zero_count_) return std::min(min_, 0.0);
  std::int64_t seen = zero_count_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::clamp(BucketMid(lo_ + static_cast<std::int32_t>(i)), min_,
                        max_);
    }
  }
  return max_;  // unreachable when counts are consistent
}

std::size_t LogHistogram::bucket_count() const {
  return used_ + (zero_count_ > 0 ? 1 : 0);
}

// ---------------------------------------------------------------------------
// TimeSeries

TimeSeries::TimeSeries(Kind kind, WindowSpec spec) : kind_(kind), spec_(spec) {
  if (spec_.resolution <= kSimTimeZero) spec_.resolution = SimTime::Ms(1.0);
  if (spec_.windows == 0) spec_.windows = 1;
  values_.assign(spec_.windows, 0.0);
  counts_.assign(spec_.windows, 0);
}

std::int64_t TimeSeries::WindowOf(SimTime t) const {
  const std::int64_t ps = std::max<std::int64_t>(t.ps(), 0);
  return ps / spec_.resolution.ps();
}

void TimeSeries::AdvanceTo(std::int64_t index) {
  if (last_index_ < base_index_) {
    // First record: anchor the ring so this window is the newest one.
    base_index_ = index;
    last_index_ = index;
    values_[Slot(index)] = 0.0;
    counts_[Slot(index)] = 0;
    return;
  }
  // Zero-fill forward (clock jumps leave explicit empty windows).
  while (last_index_ < index) {
    ++last_index_;
    values_[Slot(last_index_)] = 0.0;
    counts_[Slot(last_index_)] = 0;
    if (last_index_ - base_index_ >=
        static_cast<std::int64_t>(spec_.windows)) {
      ++base_index_;  // evicted: its slot was just reused
    }
  }
}

void TimeSeries::Record(SimTime t, double value) {
  const std::int64_t index = WindowOf(t);
  if (has_data() && index < base_index_) {
    ++dropped_late_;
    return;
  }
  AdvanceTo(index);
  const std::size_t slot = Slot(index);
  if (kind_ == Kind::kCounter) {
    values_[slot] += value;
    total_ += value;
  } else {
    values_[slot] = value;
  }
  ++counts_[slot];
}

std::vector<TimeSeries::Window> TimeSeries::Windows() const {
  std::vector<Window> out;
  if (!has_data()) return out;
  out.reserve(static_cast<std::size_t>(last_index_ - base_index_ + 1));
  const double res_us = spec_.resolution.us();
  for (std::int64_t i = base_index_; i <= last_index_; ++i) {
    Window w;
    w.index = i;
    w.start_us = static_cast<double>(i) * res_us;
    w.value = values_[Slot(i)];
    w.count = counts_[Slot(i)];
    out.push_back(w);
  }
  return out;
}

double TimeSeries::Total() const { return total_; }

double TimeSeries::SumOverRange(std::int64_t first, std::int64_t last) const {
  if (!has_data()) return 0.0;
  first = std::max(first, base_index_);
  last = std::min(last, last_index_);
  double total = 0.0;
  for (std::int64_t i = first; i <= last; ++i) {
    total += values_[Slot(i)];
  }
  return total;
}

double TimeSeries::RateOver(SimTime span) const {
  if (!has_data() || span <= kSimTimeZero) return 0.0;
  const std::int64_t want =
      std::max<std::int64_t>(1, span.ps() / spec_.resolution.ps());
  const std::int64_t first =
      std::max(base_index_, last_index_ - want + 1);
  const double total = SumOverRange(first, last_index_);
  const double covered_s =
      static_cast<double>(last_index_ - first + 1) *
      spec_.resolution.seconds();
  return covered_s > 0.0 ? total / covered_s : 0.0;
}

double TimeSeries::ValueAt(SimTime t) const {
  if (!has_data()) return 0.0;
  std::int64_t index = std::min(WindowOf(t), last_index_);
  for (; index >= base_index_; --index) {
    if (counts_[Slot(index)] > 0) return values_[Slot(index)];
  }
  return 0.0;
}

const char* TimeSeriesKindName(TimeSeries::Kind kind) {
  return kind == TimeSeries::Kind::kCounter ? "counter" : "gauge";
}

}  // namespace clflow::obs
