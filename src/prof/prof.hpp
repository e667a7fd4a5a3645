// Profiling and bottleneck attribution (the "interpretation" half of the
// paper's evaluation chapter: Fig. 6.2's breakdowns, Table 6.6's tiling
// diagnosis, SS6.5's fmax explanations).
//
// clflow::prof consumes what the lower layers already record -- the
// ocl::Runtime profiled-event stream, the per-invocation ir::KernelStats
// the planner re-analyzes for every layer, and the synthesis model's
// fpga::KernelDesign / BoardSpec data -- and produces explanations:
//
//   * per-launch bottleneck attribution: each kernel event's wall time is
//     decomposed into a pipelined-compute share (II-bound), an excess
//     external-memory service share (memory-BW-bound), and a residual the
//     clock model cannot explain (fmax-bound: routing-degraded or drooped
//     clock, contention, stale cost model). Channel-stall time and host
//     launch overhead sit *outside* the event's duration (the runtime
//     charges them before start) and are attributed alongside.
//
//     Conservation invariant: compute_us + memory_us + fmax_us equals the
//     event's duration exactly (each term is a clamped remainder, so the
//     identity holds by construction); per queue, busy + idle equals the
//     batch makespan, which is where transfer gaps and launch overhead are
//     accounted.
//
//   * a roofline view per kernel: arithmetic intensity from the graph's
//     flop counts over the kernels' global traffic, against the board's
//     DSP-peak and external-bandwidth ceilings.
//
//   * predicted-vs-observed drift: the synthesis model's per-invocation
//     estimate at the bitstream fmax against the simulated execution;
//     drift beyond a tolerance becomes a CLF6xx diagnostic through the
//     existing analysis::DiagnosticEngine (CLF601 drift, CLF602 stale
//     attribution, CLF603 overhead-dominated makespan).
//
// Reports (text / JSON / self-contained HTML) live in prof/report.hpp;
// bench-snapshot comparison (bench_diff) in prof/bench_compare.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diag.hpp"
#include "core/deployment.hpp"

namespace clflow::prof {

/// Why a launch (or a kernel's aggregate) took the time it did.
enum class Bottleneck {
  kII,              ///< pipelined compute (initiation interval) dominates
  kMemoryBw,        ///< external-memory service time exceeds compute
  kChannelStall,    ///< blocked waiting on channel producers
  kFmax,            ///< time the base-clock model cannot explain
  kLaunchOverhead,  ///< host dispatch cost rivals the execution itself
};

[[nodiscard]] std::string_view BottleneckName(Bottleneck b);

/// Attribution of one clean (first-execution) kernel event.
struct EventAttribution {
  std::string kernel;
  int queue = 0;  ///< -1 for autorun kernels
  std::size_t invocation = 0;
  double start_us = 0.0;
  double duration_us = 0.0;
  // Inside the duration; compute + memory + fmax == duration.
  double compute_us = 0.0;  ///< compute_cycles at the board's base clock
  double memory_us = 0.0;   ///< memory service time beyond the compute share
  double fmax_us = 0.0;     ///< residual (clock droop, routing, model error)
  // Outside the duration (charged by the runtime before `start`).
  double stall_us = 0.0;   ///< channel wait
  double launch_us = 0.0;  ///< host dispatch overhead (0 for autorun)
  Bottleneck bottleneck = Bottleneck::kII;
};

/// Per-kernel aggregate over all matched launches.
struct KernelProfile {
  std::string name;
  std::string op_class;
  std::string tiling;
  std::int64_t launches = 0;
  double total_us = 0.0;
  double compute_us = 0.0, memory_us = 0.0, fmax_us = 0.0;
  double stall_us = 0.0, launch_us = 0.0;
  double share = 0.0;  ///< of total kernel time
  /// Synthesis-model estimate at the bitstream fmax, summed per launch.
  double predicted_us = 0.0;
  double drift = 0.0;  ///< total_us / predicted_us - 1 (0 if no prediction)
  Bottleneck bottleneck = Bottleneck::kII;
  // Roofline.
  double flops = 0.0;
  double bytes = 0.0;  ///< algorithmic global traffic (read + written)
  double intensity = 0.0;        ///< flops / byte
  double achieved_gflops = 0.0;  ///< flops / total_us
  double roof_gflops = 0.0;      ///< min(DSP peak, intensity * ext BW)
};

struct QueueProfile {
  int queue = 0;
  double busy_us = 0.0;
  double idle_us = 0.0;  ///< busy + idle == makespan
};

/// One box on the report timeline (every profiled event, including
/// transfers and fault/recovery slices, plus synthetic stall slices).
struct TimelineSlice {
  std::string label;
  std::string kind;  ///< "write" | "read" | "kernel" | "stall" | "fault"
  int queue = 0;     ///< -1 for autorun
  double start_us = 0.0;
  double dur_us = 0.0;
};

struct Profile {
  std::string net;
  std::string board_key;
  std::string board_name;
  double fmax_mhz = 0.0;       ///< achieved (bitstream)
  double base_fmax_mhz = 0.0;  ///< board's uncongested clock
  double peak_gflops = 0.0;    ///< 2 * DSPs * fmax
  double mem_bw_gbps = 0.0;
  double makespan_us = 0.0;  ///< the profiled batch (one image)
  double write_us = 0.0, read_us = 0.0;  ///< host<->device transfers
  double autorun_busy_us = 0.0;
  std::vector<EventAttribution> events;
  std::vector<KernelProfile> kernels;  ///< sorted by total time, desc
  std::vector<QueueProfile> queues;    ///< host queues only
  std::vector<TimelineSlice> timeline;
  /// Kernel events that could not be matched to a planned invocation
  /// (stale event stream / foreign labels); nonzero triggers CLF602.
  std::size_t unmatched_events = 0;
  /// max |compute+memory+fmax - duration| over events; ~0 by construction.
  double conservation_error_us = 0.0;
};

/// Runs one timing-only inference on `d` (clearing prior events) and
/// attributes the resulting event stream. Throws when !d.ok().
[[nodiscard]] Profile BuildProfile(core::Deployment& d, const Tensor& input);

/// Reports the profile's CLF6xx findings into `diags`: CLF601 per
/// kernel drifting more than 10% from its predicted time, CLF602 on a
/// broken conservation/matching invariant, CLF603 when the host queues
/// sit idle more than 60% of the makespan.
void EmitDiagnostics(const Profile& p, analysis::DiagnosticEngine& diags);

}  // namespace clflow::prof
