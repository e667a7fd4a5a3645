// SLO monitoring over per-request spans.
//
// ROADMAP item 1 (a serving layer with p50/p99 latency SLOs) needs the
// measurement substrate before a scheduler exists: a declared SloSpec, a
// sliding window of per-request summaries, and an error-budget burn rate
// that says how fast the declared objective is being spent. Requests are
// summarized from the runtime's ocl::EventPool (ocl::SummarizeRequest
// bridges the two layers); the monitor only sees RequestSummary, so
// clflow_telemetry depends on obs + analysis and nothing above them.
//
// Burn rate follows the SRE convention: with objective 0.99 the error
// budget is 1% of requests, so a window where 2% violate burns at 2.0x --
// budget exhausted in half the aspired period. Crossing `burn_threshold`
// raises CLF701; a request whose channel-stall share exceeds
// `starvation_fraction` raises CLF702 (a queue is starving the request);
// both are reported once per crossing/request, not per evaluation.
// violation_rate() over the request-count window is O(1).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "analysis/diag.hpp"
#include "obs/metrics.hpp"

namespace clflow::telemetry {

/// The declared objective: latency bound, aspired success fraction, and
/// the window/alerting thresholds.
struct SloSpec {
  /// A request meets the SLO when it completes OK within this bound.
  double latency_objective_us = 0.0;
  /// Aspired fraction of requests meeting the SLO (0.99 = 1% budget).
  double objective = 0.99;
  /// Sliding-window size in requests.
  std::size_t window = 64;
  /// CLF701 fires when burn_rate() crosses above this.
  double burn_threshold = 1.0;
  /// CLF702 fires when max_stall_us / latency_us exceeds this for a
  /// request -- one event spent nearly the whole request blocked on a
  /// channel. The default sits above the ~85% first-fill stall a healthy
  /// pipelined design shows on its last kernels (dispatched at t=0,
  /// blocked until upstream data arrives), so it only fires when a
  /// producer is genuinely wedged (hangs, retry storms).
  double starvation_fraction = 0.9;
};

/// One completed (or failed) request as the monitor sees it: identity,
/// simulated timing, and how much of it was spent blocked on channels.
struct RequestSummary {
  std::uint64_t trace_id = 0;
  double latency_us = 0.0;
  /// Channel-stall time summed over the request's events. Can exceed
  /// latency_us on pipelined designs (kernels stall concurrently), so
  /// starvation detection uses max_stall_us, not this sum.
  double stall_us = 0.0;
  double max_stall_us = 0.0;   ///< largest single-event channel stall
  double queue_wait_us = 0.0;  ///< enqueue-to-start wait, summed
  int queue = 0;               ///< queue carrying the dominant stall
  std::size_t events = 0;      ///< runtime events attributed to the request
  bool ok = true;              ///< false when the request faulted
};

class SloMonitor {
 public:
  explicit SloMonitor(SloSpec spec);

  /// Folds one request into the window. When `diags` is given, SLO-burn
  /// and starvation findings are reported there (CLF701/CLF702).
  void ObserveRequest(const RequestSummary& request,
                      analysis::DiagnosticEngine* diags = nullptr);

  [[nodiscard]] const SloSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t total_requests() const { return total_; }
  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }

  /// Fraction of windowed requests violating the SLO (failed or late).
  [[nodiscard]] double violation_rate() const;
  /// violation_rate / (1 - objective); 1.0 = spending budget exactly at
  /// the aspired rate, >1 = burning it faster.
  [[nodiscard]] double burn_rate() const;
  /// Fraction of windowed requests meeting the SLO.
  [[nodiscard]] double goodput() const;
  /// Latency distribution over the window (p50/p95/p99 via obs).
  [[nodiscard]] obs::Histogram::Snapshot WindowLatency() const;

  /// Writes telemetry.slo.* gauges (+ the windowed latency histogram)
  /// into `registry`.
  void ExportMetrics(obs::Registry& registry,
                     const obs::Labels& base_labels = {}) const;

  [[nodiscard]] std::string ToText() const;
  [[nodiscard]] std::string ToJson() const;

 private:
  SloSpec spec_;
  obs::Histogram latency_;  ///< windowed to spec_.window
  std::deque<bool> window_;  ///< per request: did it violate the SLO
  std::size_t window_violations_ = 0;  ///< violations in window_ (O(1) rate)
  std::uint64_t total_ = 0;
  std::uint64_t total_violations_ = 0;
  std::uint64_t starved_requests_ = 0;
  bool burning_ = false;  ///< CLF701 edge state
};

}  // namespace clflow::telemetry
