#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "core/deployment.hpp"
#include "ha/replica_set.hpp"

namespace clflow::serve {

const char* TraceShapeName(TraceShape shape) {
  switch (shape) {
    case TraceShape::kPoisson: return "poisson";
    case TraceShape::kBursty: return "bursty";
    case TraceShape::kRamp: return "ramp";
  }
  return "?";
}

namespace {

/// What one service attempt cost and where it ran.
struct Served {
  SimTime service;
  int board = 0;
  int failovers = 0;
  bool ok = true;
};

/// Spreads [from, to) over the windows it overlaps (busy accounting).
void Distribute(obs::TimeSeries& series, SimTime from, SimTime to) {
  if (to <= from) return;
  const std::int64_t res_ps = series.spec().resolution.ps();
  const std::int64_t first = series.WindowOf(from);
  const std::int64_t last = series.WindowOf(to - SimTime::Ps(1));
  for (std::int64_t w = first; w <= last; ++w) {
    const SimTime ws = SimTime::Ps(w * res_ps);
    const SimTime we = SimTime::Ps((w + 1) * res_ps);
    series.Record(ws, (std::min(to, we) - std::max(from, ws)).us());
  }
}

/// The fixed trace shape: a bursty trace runs at kBurstFactor x the mean
/// rate for the first kBurstDuty of every kBurstPeriodWindows windows; a
/// ramp trace rises linearly to kRampFactor x by its last request; a
/// request is good within kSloHeadroom x the base service time.
constexpr double kBurstFactor = 4.0;
constexpr double kBurstDuty = 0.25;
constexpr int kBurstPeriodWindows = 8;
constexpr double kRampFactor = 3.0;
constexpr double kSloHeadroom = 3.0;

void CheckOptions(const LoadgenOptions& options) {
  if (!std::isfinite(options.utilization) || options.utilization <= 0.0) {
    throw Error("LoadgenOptions::utilization must be finite and > 0 (got " +
                std::to_string(options.utilization) + ")");
  }
}

/// The campaign core, shared by both targets. `serve_one` runs one batch
/// and reports its simulated cost; `sample_boards` (optional) records
/// per-board state after each completion.
LoadgenReport RunCampaign(
    const LoadgenOptions& options, const std::string& target_name,
    SimTime base_service,
    const std::function<Served()>& serve_one,
    const std::function<void(obs::Registry&, const obs::WindowSpec&,
                             SimTime)>& sample_boards) {
  LoadgenReport report;
  report.options = options;
  report.target = target_name;
  report.base_service = std::max(base_service, SimTime::Ps(1));
  const int requests = std::max(options.requests, 1);
  report.rate_rps = options.utilization / report.base_service.seconds();
  report.objective = SimTime::Us(kSloHeadroom * report.base_service.us());
  // Aim for roughly half the ring over the expected arrival span so
  // bursts and the queueing tail still fit before eviction.
  obs::WindowSpec ws;
  const double span_s = static_cast<double>(requests) / report.rate_rps;
  ws.resolution =
      std::max(SimTime::Seconds(span_s / (static_cast<double>(ws.windows) /
                                          2.0)),
               SimTime::Us(1.0));
  report.resolution = ws.resolution;

  report.metrics = std::make_shared<obs::Registry>();
  obs::Registry& reg = *report.metrics;
  const auto kCounter = obs::TimeSeries::Kind::kCounter;
  const auto kGauge = obs::TimeSeries::Kind::kGauge;
  obs::TimeSeries& arrivals = reg.series("serve.arrivals", {}, kCounter, ws);
  obs::TimeSeries& completions =
      reg.series("serve.completions", {}, kCounter, ws);
  obs::TimeSeries& good_ts = reg.series("serve.good", {}, kCounter, ws);
  obs::TimeSeries& errors_ts = reg.series("serve.errors", {}, kCounter, ws);
  obs::TimeSeries& failovers_ts =
      reg.series("serve.failovers", {}, kCounter, ws);
  obs::TimeSeries& busy = reg.series("serve.busy_us", {}, kCounter, ws);
  obs::TimeSeries& depth = reg.series("serve.queue_depth", {}, kGauge, ws);
  obs::Histogram& lat_hist = reg.histogram("serve.latency_us");
  obs::Histogram& qd_hist = reg.histogram("serve.queue_delay_us");
  obs::Histogram& svc_hist = reg.histogram("serve.service_us");

  // Open-loop arrivals: the trace never waits for the server. The rate
  // is modulated per the shape; exponential gaps come from the seeded
  // stream, rounded to integer picoseconds (the digest's domain).
  Rng rng(options.seed);
  const double period_us = ws.resolution.us() * kBurstPeriodWindows;
  const double burst_us = period_us * kBurstDuty;
  auto rate_at = [&](SimTime t, int index) {
    double rate = report.rate_rps;
    if (options.shape == TraceShape::kBursty) {
      const double phase = std::fmod(t.us(), period_us);
      if (phase < burst_us) rate *= kBurstFactor;
    } else if (options.shape == TraceShape::kRamp) {
      const double frac =
          requests > 1 ? static_cast<double>(index) /
                             static_cast<double>(requests - 1)
                       : 0.0;
      rate *= 1.0 + (kRampFactor - 1.0) * frac;
    }
    return rate;
  };

  SimTime arrival = kSimTimeZero;
  SimTime server_free = kSimTimeZero;
  std::vector<SimTime> done_times;  // FIFO: monotone completion times
  done_times.reserve(static_cast<std::size_t>(requests));
  common::Fnv digest;

  for (int i = 0; i < requests; ++i) {
    const double rate = rate_at(arrival, i);
    const double u = rng.NextDouble();
    const double gap_s = -std::log(1.0 - u) / rate;
    arrival += SimTime::Ps(static_cast<std::int64_t>(gap_s * 1e12 + 0.5));

    RequestRecord r;
    r.id = i;
    r.arrival = arrival;
    r.start = std::max(arrival, server_free);

    const Served served = serve_one();
    r.completion = r.start + std::max(served.service, SimTime::Ps(1));
    r.board = served.board;
    r.failovers = served.failovers;
    r.ok = served.ok;
    r.good = r.ok && r.latency() <= report.objective;
    server_free = r.completion;

    // Requests in the system when this one arrived (itself included):
    // FIFO completions are monotone, so binary-search the done list.
    const auto still_busy = static_cast<std::int64_t>(
        done_times.end() -
        std::upper_bound(done_times.begin(), done_times.end(), arrival));
    depth.Record(arrival, static_cast<double>(still_busy + 1));
    done_times.push_back(r.completion);

    arrivals.Record(r.arrival);
    completions.Record(r.completion);
    if (r.good) good_ts.Record(r.completion);
    if (!r.ok) errors_ts.Record(r.completion);
    if (r.failovers > 0) {
      failovers_ts.Record(r.completion,
                          static_cast<double>(r.failovers));
    }
    Distribute(busy, r.start, r.completion);
    lat_hist.Observe(r.latency().us());
    qd_hist.Observe(r.queue_delay().us());
    svc_hist.Observe(r.service().us());
    if (sample_boards) sample_boards(reg, ws, r.completion);

    digest.I64(r.arrival.ps());
    digest.I64(r.start.ps());
    digest.I64(r.completion.ps());
    digest.I64(static_cast<std::int64_t>(r.board) + 1);
    digest.U64((r.ok ? 1ULL : 0ULL) |
               (static_cast<std::uint64_t>(r.failovers) << 1));
    report.requests.push_back(r);
  }

  // Summary, exact from the records.
  std::vector<double> lat;
  lat.reserve(report.requests.size());
  double qd_sum = 0.0;
  std::int64_t good = 0;
  for (const RequestRecord& r : report.requests) {
    lat.push_back(r.latency().us());
    qd_sum += r.queue_delay().us();
    if (r.good) ++good;
    if (r.ok && !r.good) ++report.violations;
    if (!r.ok) {
      ++report.errors;
      ++report.violations;
    }
    report.failovers += r.failovers;
  }
  std::sort(lat.begin(), lat.end());
  report.p50_us = obs::Percentile(lat, 0.50);
  report.p95_us = obs::Percentile(lat, 0.95);
  report.p99_us = obs::Percentile(lat, 0.99);
  report.max_us = lat.empty() ? 0.0 : lat.back();
  report.mean_queue_delay_us =
      report.requests.empty()
          ? 0.0
          : qd_sum / static_cast<double>(report.requests.size());
  const SimTime arrival_span = report.requests.back().arrival;
  const SimTime completion_span = report.requests.back().completion;
  report.offered_rps =
      arrival_span > kSimTimeZero
          ? static_cast<double>(requests) / arrival_span.seconds()
          : 0.0;
  report.achieved_rps =
      completion_span > kSimTimeZero
          ? static_cast<double>(requests) / completion_span.seconds()
          : 0.0;
  report.goodput = static_cast<double>(good) /
                   static_cast<double>(report.requests.size());
  double peak = 0.0;
  for (const obs::TimeSeries::Window& w : busy.Windows()) {
    peak = std::max(peak, w.value / ws.resolution.us());
  }
  report.peak_occupancy = peak;
  report.digest = digest.h;
  return report;
}

}  // namespace

LoadgenReport RunLoadCampaign(core::Deployment& target, const Tensor& input,
                              const LoadgenOptions& options) {
  CheckOptions(options);
  // Calibrate the base service time with one warmup batch (also pays the
  // first-fill pipeline charge so steady-state requests are uniform).
  const SimTime base = target.Run(input, /*functional=*/false).latency;
  return RunCampaign(
      options, "deployment", base,
      [&]() {
        Served s;
        try {
          s.service = target.Run(input, /*functional=*/false).latency;
        } catch (const Error&) {
          s.ok = false;
          s.service = base;
        }
        return s;
      },
      {});
}

LoadgenReport RunLoadCampaign(ha::ReplicaSet& target, const Tensor& input,
                              const LoadgenOptions& options) {
  CheckOptions(options);
  const SimTime base = target.Run(input, /*functional=*/false).latency;
  // Each board's ha.board.state series, resolved at the first sample.
  std::vector<obs::TimeSeries*> board_state;
  auto sample_boards = [&target, &board_state](obs::Registry& reg,
                                               const obs::WindowSpec& ws,
                                               SimTime now) {
    if (board_state.empty()) {
      for (int b = 0; b < target.num_replicas(); ++b) {
        board_state.push_back(
            &reg.series("ha.board.state", {{"board", target.BoardLabel(b)}},
                        obs::TimeSeries::Kind::kGauge, ws));
      }
    }
    for (int b = 0; b < target.num_replicas(); ++b) {
      board_state[static_cast<std::size_t>(b)]->Record(
          now, static_cast<double>(static_cast<int>(target.health(b))));
    }
  };
  return RunCampaign(
      options, "replicaset:" + std::to_string(target.num_replicas()), base,
      [&]() {
        // No reader looks at a board's events across batches, so each
        // batch starts from empty pools: their slots are reused instead of
        // growing (and page-faulting) for the whole campaign.
        for (int b = 0; b < target.num_replicas(); ++b) {
          target.replica(b).runtime().ClearEvents();
        }
        if (target.fallback()) target.fallback()->runtime().ClearEvents();
        Served s;
        try {
          const ha::HaRunResult r = target.Run(input, /*functional=*/false);
          // Failed attempts burn simulated time before the successful
          // one: the client waits for both.
          s.service = r.latency + r.recovery_time;
          s.board = r.board;
          s.failovers = r.failovers();
        } catch (const Error&) {
          s.ok = false;
          s.board = -1;
          s.service = base;
        }
        return s;
      },
      sample_boards);
}

}  // namespace clflow::serve
