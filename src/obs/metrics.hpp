// Label-aware metrics registry (the "obs" half of the paper's evaluation
// chapter: per-op profiles, stall/occupancy attribution, area totals).
//
// Four instrument kinds, all identified by a name plus an ordered label
// set (so `ocl.queue.busy_us{queue=1}` and `{queue=2}` are distinct
// series):
//
//   * Counter    - monotone accumulation (pass applications, bytes moved);
//   * Gauge      - last-write-wins level (area totals, fmax, occupancy);
//   * Histogram  - value distribution with p50/p95/p99/max. Log-bucketed
//                  by default (bounded memory, quantiles within 1% --
//                  see obs/timeseries.hpp); full-sample retention is an
//                  explicit opt-in for exact-quantile consumers;
//   * TimeSeries - windowed counters/gauges on the simulated clock
//                  (request rates, utilization timelines).
//
// A Registry owns its instruments and exports them as JSON (machine
// consumption: bench snapshots), CSV (spreadsheets), Prometheus text, and
// an aligned text table (humans, via common/table). Instrument references
// returned by counter()/gauge()/histogram()/series() stay valid for the
// registry's lifetime.
//
// Code that cannot be plumbed a registry (the IR passes, deep inside
// kernel builders) records through Registry::Current(), a thread-local
// pointer that scoped instrumentation (core::Deployment::Compile) swaps to
// its own registry; outside any scope it falls back to a process-wide
// default so nothing is silently dropped.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"

namespace clflow {
class Table;
}

namespace clflow::obs {

/// Ordered key=value labels; ordering makes series keys deterministic.
using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void Add(double delta = 1.0);
  [[nodiscard]] double value() const;

 private:
  mutable std::mutex mu_;
  double value_ = 0.0;
};

class Gauge {
 public:
  void Set(double value);
  [[nodiscard]] double value() const;

 private:
  mutable std::mutex mu_;
  double value_ = 0.0;
};

/// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample
/// vector; 0 when it is empty.
[[nodiscard]] double Percentile(const std::vector<double>& sorted, double p);

class Histogram {
 public:
  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };

  void Observe(double value);
  [[nodiscard]] Snapshot snapshot() const;

  /// Default storage is log-bucketed (obs::LogHistogram): count/sum/min/
  /// max are exact, quantiles are within 1% relative error, and memory is
  /// bounded regardless of how many values a serving loop observes.
  /// Opting in to sample retention keeps every observation (or the most
  /// recent `window`) for exact nearest-rank quantiles -- the mode tests
  /// and the SLO monitor's bounded request window use. Switching modes
  /// discards data recorded under the previous mode, so callers pick a
  /// mode before observing.
  void set_retain_samples(bool retain);
  [[nodiscard]] bool retain_samples() const;

  /// Makes this a sliding-window histogram keeping only the most recent
  /// `n` observations (implies sample retention; memory is bounded by n).
  /// Shrinking the window immediately evicts the oldest samples, so a
  /// rotated window never carries stale samples into its statistics; an
  /// empty or single-sample window reports consistent zeros / the lone
  /// sample for every percentile in JSON, CSV, and the summary table
  /// alike. `n` = 0 keeps sample retention without a bound.
  void set_window(std::size_t n);

  /// Copy of the currently retained samples, oldest first (empty in the
  /// default log-bucketed mode).
  [[nodiscard]] std::vector<double> window_samples() const;

  /// The underlying buckets (meaningful in the default bucketed mode);
  /// exposed for quantile-drift gates in tests.
  [[nodiscard]] LogHistogram log_buckets() const;

 private:
  mutable std::mutex mu_;
  bool retain_samples_ = false;
  LogHistogram buckets_;
  std::deque<double> samples_;
  std::size_t window_ = 0;  ///< 0 = unbounded (retained mode only)
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name,
                                 const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name,
                             const Labels& labels = {});
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const Labels& labels = {});

  /// Windowed time series. The first call for a (name, labels) pair fixes
  /// its kind and window spec; later calls return the same instance and
  /// ignore the arguments.
  [[nodiscard]] TimeSeries& series(const std::string& name,
                                   const Labels& labels = {},
                                   TimeSeries::Kind kind =
                                       TimeSeries::Kind::kCounter,
                                   const WindowSpec& spec = {});

  /// (name, labels) of every registered time series, in series-key order
  /// -- for exporters that group same-named series across labels (e.g.
  /// the observatory's per-board health steps).
  [[nodiscard]] std::vector<std::pair<std::string, Labels>> SeriesKeys()
      const;

  /// {"counters":[{name,labels,value}...],"gauges":[...],
  ///  "histograms":[{name,labels,count,sum,min,max,p50,p95,p99}...],
  ///  "series":[{name,labels,kind,resolution_us,total,dropped,
  ///             windows:[{index,start_us,value,count}...]}...]}
  [[nodiscard]] std::string ToJson() const;

  /// Prometheus text exposition format (version 0.0.4): one `# TYPE`
  /// header per metric name, counters/gauges as single samples, histograms
  /// as summaries (quantile series plus _sum/_count), time series as a
  /// `_total` counter plus a `_rate_per_s` gauge over the retained
  /// windows (gauge series export their latest value). Dots in metric
  /// names become underscores (Prometheus identifier rules); label values
  /// are escaped per the format.
  [[nodiscard]] std::string ToPrometheus() const;

  /// Human-readable summary, one instrument per row.
  [[nodiscard]] Table SummaryTable() const;

  /// Process-wide fallback registry.
  [[nodiscard]] static Registry& Default();
  /// The registry instrumentation should record into on this thread:
  /// the innermost ScopedTelemetry's, else Default(). Never null.
  [[nodiscard]] static Registry* Current();

 private:
  friend class ScopedTelemetry;

  template <typename M>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<M> metric;
  };

  template <typename M>
  M& Intern(std::map<std::string, Entry<M>>& series, const std::string& name,
            const Labels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
  std::map<std::string, Entry<TimeSeries>> series_;
};

/// "name{k=v,...}" -- the series key used by the registry and the CSV /
/// table exporters.
[[nodiscard]] std::string SeriesKey(const std::string& name,
                                    const Labels& labels);

}  // namespace clflow::obs
