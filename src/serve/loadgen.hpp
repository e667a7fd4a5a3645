// Deterministic open-loop load generator (obs v2, tentpole c).
//
// Drives a core::Deployment or ha::ReplicaSet with seeded synthetic
// timing-only traffic entirely on the simulated clock: arrivals come from
// a Poisson, bursty, or ramp trace; the target serves them FIFO (one in
// flight -- the serving layer's dynamic batcher is the next PR); every
// request records arrival/start/completion, so latency *includes*
// queueing delay the way a client would measure it.
//
// The mean offered rate is `utilization` x the base service rate measured
// by one warmup batch. The trace shapes are fixed: a bursty trace runs at
// 4x the mean rate for the first quarter of every 8-window period, a ramp
// trace rises linearly to 3x the mean rate by its last request, and a
// request is "good" when it completes within 3x the base service time.
// The window resolution is sized so the expected arrival span fills half
// of the default 512-window ring. Everything lands in an obs::Registry
// as windowed time series (serve.arrivals, serve.completions, serve.good,
// serve.busy_us, serve.queue_depth, per-board ha.board.state steps) plus
// bounded log-bucketed latency histograms -- the substrate the
// observatory dashboard and bench_serving_obs render.
//
// Determinism: arrivals are a pure function of (seed, shape, requests,
// utilization, base service time);
// service times come from the discrete-event runtime; the report digest
// hashes the integer picosecond timeline of every request, so two runs
// with the same seed -- at any host thread count -- digest identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "tensor/tensor.hpp"

namespace clflow::core {
class Deployment;
}
namespace clflow::ha {
class ReplicaSet;
}

namespace clflow::serve {

enum class TraceShape { kPoisson, kBursty, kRamp };

[[nodiscard]] const char* TraceShapeName(TraceShape shape);

struct LoadgenOptions {
  std::uint64_t seed = 2021;
  int requests = 200;
  TraceShape shape = TraceShape::kPoisson;
  /// Open-loop utilization target: the mean offered rate is this fraction
  /// of the target's measured base service rate. Must be finite and > 0.
  double utilization = 0.7;
};

/// One served request on the loadgen's virtual clock.
struct RequestRecord {
  std::int64_t id = 0;
  SimTime arrival, start, completion;
  [[nodiscard]] SimTime service() const { return completion - start; }
  [[nodiscard]] SimTime queue_delay() const { return start - arrival; }
  [[nodiscard]] SimTime latency() const { return completion - arrival; }
  int board = 0;       ///< serving board (-1 = fallback); 0 for Deployment
  int failovers = 0;   ///< failed attempts before success (ReplicaSet)
  bool ok = true;      ///< request completed
  bool good = false;   ///< ok and within the latency objective
};

struct LoadgenReport {
  LoadgenOptions options;  ///< as given
  std::string target;      ///< "deployment" or "replicaset:<n>"
  SimTime base_service;    ///< calibration run latency
  SimTime objective;       ///< latency objective used for goodput
  double rate_rps = 0.0;   ///< mean offered rate the utilization resolved to
  SimTime resolution;      ///< window width of every recorded series

  std::vector<RequestRecord> requests;

  /// Windowed series + bounded histograms recorded during the campaign.
  std::shared_ptr<obs::Registry> metrics;

  // Campaign summary (exact, from the request records).
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, max_us = 0.0;
  double mean_queue_delay_us = 0.0;
  double offered_rps = 0.0;   ///< requests / arrival span
  double achieved_rps = 0.0;  ///< requests / completion span
  double goodput = 0.0;       ///< good / requests
  double peak_occupancy = 0.0;
  std::int64_t violations = 0;
  std::int64_t errors = 0;
  std::int64_t failovers = 0;

  /// FNV over every request's integer picosecond timeline; stable at any
  /// thread count for a fixed seed.
  std::uint64_t digest = 0;
};

/// Runs a seeded campaign against a single deployment. Throws
/// clflow::Error when `utilization` is not finite and positive.
[[nodiscard]] LoadgenReport RunLoadCampaign(core::Deployment& target,
                                            const Tensor& input,
                                            const LoadgenOptions& options);

/// Runs a seeded campaign through a ReplicaSet's health-driven
/// dispatcher; per-board busy series and health step series are recorded
/// under the set's BoardLabel() names.
[[nodiscard]] LoadgenReport RunLoadCampaign(ha::ReplicaSet& target,
                                            const Tensor& input,
                                            const LoadgenOptions& options);

}  // namespace clflow::serve
