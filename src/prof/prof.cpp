#include "prof/prof.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "fpga/synth.hpp"
#include "graph/graph.hpp"

namespace clflow::prof {

namespace {

/// Largest component wins; ties resolve in the declaration order of
/// Bottleneck (compute first), which keeps classification deterministic.
Bottleneck Classify(double compute, double memory, double stall, double fmax,
                    double launch) {
  struct Candidate {
    Bottleneck kind;
    double us;
  };
  const Candidate candidates[] = {
      {Bottleneck::kII, compute},          {Bottleneck::kMemoryBw, memory},
      {Bottleneck::kChannelStall, stall},  {Bottleneck::kFmax, fmax},
      {Bottleneck::kLaunchOverhead, launch},
  };
  const Candidate* best = &candidates[0];
  for (const auto& c : candidates) {
    if (c.us > best->us) best = &c;
  }
  return best->kind;
}

/// A faulty/recovery slice ("[rerun#1]", "[hung]", "reprogram [k]") rather
/// than a first execution; these occupy queues but are not attributable to
/// a planned invocation.
bool IsFaultSlice(std::string_view label) {
  return label.find(" [") != std::string_view::npos ||
         label.rfind("reprogram", 0) == 0;
}

}  // namespace

std::string_view BottleneckName(Bottleneck b) {
  switch (b) {
    case Bottleneck::kII: return "II-bound";
    case Bottleneck::kMemoryBw: return "memory-BW-bound";
    case Bottleneck::kChannelStall: return "channel-stall-bound";
    case Bottleneck::kFmax: return "fmax-bound";
    case Bottleneck::kLaunchOverhead: return "launch-overhead-bound";
  }
  return "?";
}

namespace {

/// Attributes an event stream that was already collected (the runtime's
/// pool since the last ClearEvents, covering `makespan_us`), without
/// running anything. `queue_busy_us`/`queue_idle_us` give per-queue usage
/// for the same window.
Profile AttributeEvents(const core::Deployment& d,
                        const ocl::EventPool& events, double makespan_us,
                        const std::vector<double>& queue_busy_us,
                        const std::vector<double>& queue_idle_us) {
  if (!d.ok()) {
    throw Error("cannot profile a deployment that did not synthesize: " +
                d.bitstream().status_detail);
  }
  const fpga::Bitstream& bs = d.bitstream();
  const fpga::BoardSpec& board = bs.board;
  const fpga::CostModel& model = d.options().cost_model;
  const graph::Graph& g = d.fused_graph();
  const auto& invocations = d.invocations();
  const auto& kernels = d.kernels();

  Profile p;
  p.net = g.name();
  p.board_key = board.key;
  p.board_name = board.name;
  p.fmax_mhz = bs.fmax_mhz;
  p.base_fmax_mhz = board.base_fmax_mhz;
  p.peak_gflops = 2.0 * static_cast<double>(board.dsps) * bs.fmax_mhz / 1e3;
  p.mem_bw_gbps = board.ext_bw_gbps;
  p.makespan_us = makespan_us;

  std::map<std::string, KernelProfile> by_kernel;
  std::size_t clean_ordinal = 0;
  for (const auto& ev : events) {
    const std::string label(ev.label);
    const bool fault = IsFaultSlice(label);
    const char* kind = ev.kind == ocl::CommandKind::kWriteBuffer ? "write"
                       : ev.kind == ocl::CommandKind::kReadBuffer
                           ? "read"
                           : (fault ? "fault" : "kernel");
    if (ev.stall.us() > 0) {
      p.timeline.push_back({label + " [stall]", "stall", ev.queue,
                            (ev.start - ev.stall).us(), ev.stall.us()});
    }
    p.timeline.push_back(
        {label, kind, ev.queue, ev.start.us(), ev.duration().us()});

    if (ev.kind == ocl::CommandKind::kWriteBuffer) {
      p.write_us += ev.duration().us();
      continue;
    }
    if (ev.kind == ocl::CommandKind::kReadBuffer) {
      p.read_us += ev.duration().us();
      continue;
    }
    if (ev.queue < 0) p.autorun_busy_us += ev.duration().us();
    if (fault) continue;  // occupies, not attributable

    // The k-th clean kernel event corresponds to the k-th planned
    // invocation: Run() enqueues them in plan order and the simulated
    // runtime records events eagerly, in enqueue order.
    const std::size_t k = clean_ordinal++;
    if (invocations.empty()) {
      ++p.unmatched_events;
      continue;
    }
    const std::size_t inv_idx = k % invocations.size();
    const core::PlannedInvocation& inv = invocations[inv_idx];
    const core::PlannedKernel& pk =
        kernels[static_cast<std::size_t>(inv.kernel_index)];
    if (pk.built.kernel.name != label) {
      ++p.unmatched_events;
      continue;
    }

    const double t = ev.duration().us();
    // Cycles at the board's *base* clock: what the kernel would cost if
    // routing and droop took nothing. us = cycles / f_mhz.
    const double compute_full =
        inv.stats.compute_cycles / board.base_fmax_mhz;
    // External-memory service time is clock-independent: bytes over the
    // board's DRAM bandwidth.
    const double memory_full =
        fpga::EffectiveMemoryBytes(inv.stats, model) /
        (board.ext_bw_gbps * 1e3);

    EventAttribution a;
    a.kernel = label;
    a.queue = ev.queue;
    a.invocation = inv_idx;
    a.start_us = ev.start.us();
    a.duration_us = t;
    // Clamped-remainder decomposition: each term takes what is left, so
    // compute + memory + fmax == t identically and every term is >= 0.
    a.compute_us = std::min(t, compute_full);
    a.memory_us = std::max(0.0, std::min(t, memory_full) - a.compute_us);
    a.fmax_us = t - a.compute_us - a.memory_us;
    a.stall_us = ev.stall.us();
    a.launch_us = pk.built.kernel.autorun ? 0.0 : board.kernel_launch_us;
    a.bottleneck =
        Classify(a.compute_us, a.memory_us, a.stall_us, a.fmax_us,
                 a.launch_us);
    p.conservation_error_us =
        std::max(p.conservation_error_us,
                 std::abs(a.compute_us + a.memory_us + a.fmax_us - t));

    KernelProfile& kp = by_kernel[label];
    if (kp.launches == 0) {
      kp.name = label;
      kp.op_class = pk.op_class;
      kp.tiling = pk.tiling_desc;
    }
    ++kp.launches;
    kp.total_us += t;
    kp.compute_us += a.compute_us;
    kp.memory_us += a.memory_us;
    kp.fmax_us += a.fmax_us;
    kp.stall_us += a.stall_us;
    kp.launch_us += a.launch_us;
    kp.predicted_us +=
        fpga::InvocationTime(inv.stats, board, bs.fmax_mhz, model).us();
    kp.flops += graph::NodeCost(g.node(inv.node), g).flops;
    kp.bytes += inv.stats.global_bytes_read + inv.stats.global_bytes_written;
    p.events.push_back(std::move(a));
  }

  double kernel_total_us = 0.0;
  for (const auto& [_, kp] : by_kernel) kernel_total_us += kp.total_us;
  for (auto& [_, kp] : by_kernel) {
    kp.share = kernel_total_us > 0 ? kp.total_us / kernel_total_us : 0.0;
    kp.drift =
        kp.predicted_us > 0 ? kp.total_us / kp.predicted_us - 1.0 : 0.0;
    kp.bottleneck = Classify(kp.compute_us, kp.memory_us, kp.stall_us,
                             kp.fmax_us, kp.launch_us);
    kp.intensity = kp.bytes > 0 ? kp.flops / kp.bytes : 0.0;
    kp.achieved_gflops =
        kp.total_us > 0 ? kp.flops / kp.total_us / 1e3 : 0.0;
    kp.roof_gflops =
        std::min(p.peak_gflops, kp.intensity * board.ext_bw_gbps);
    p.kernels.push_back(kp);
  }
  std::sort(p.kernels.begin(), p.kernels.end(),
            [](const KernelProfile& x, const KernelProfile& y) {
              return x.total_us > y.total_us;
            });

  for (std::size_t q = 0; q < queue_busy_us.size(); ++q) {
    QueueProfile qp;
    qp.queue = static_cast<int>(q);
    qp.busy_us = queue_busy_us[q];
    qp.idle_us = q < queue_idle_us.size() ? queue_idle_us[q] : 0.0;
    p.queues.push_back(qp);
  }
  return p;
}

}  // namespace

Profile BuildProfile(core::Deployment& d, const Tensor& input) {
  ocl::Runtime& rt = d.runtime();
  const int nq = rt.num_queues();
  std::vector<ocl::Runtime::QueueUsage> before;
  before.reserve(static_cast<std::size_t>(nq));
  for (int q = 0; q < nq; ++q) before.push_back(rt.queue_usage(q));

  rt.ClearEvents();
  const core::RunResult r = d.Run(input, /*functional=*/false);

  std::vector<double> busy, idle;
  for (int q = 0; q < nq; ++q) {
    const auto u = rt.queue_usage(q);
    busy.push_back((u.busy - before[static_cast<std::size_t>(q)].busy).us());
    idle.push_back((u.idle - before[static_cast<std::size_t>(q)].idle).us());
  }
  return AttributeEvents(d, rt.event_pool(), r.latency.us(), busy, idle);
}

void EmitDiagnostics(const Profile& p, analysis::DiagnosticEngine& diags) {
  // |observed/predicted - 1| beyond this flags CLF601 per kernel.
  constexpr double kDriftTolerance = 0.10;
  // (queue idle + launch overhead) / makespan beyond this flags CLF603.
  constexpr double kOverheadFraction = 0.60;
  for (const auto& kp : p.kernels) {
    if (kp.predicted_us <= 0 || std::abs(kp.drift) <= kDriftTolerance) {
      continue;
    }
    std::ostringstream os;
    os.precision(3);
    os << "kernel time drifts " << (kp.drift >= 0 ? "+" : "")
       << kp.drift * 100.0 << "% from the synthesis model (observed "
       << kp.total_us / static_cast<double>(kp.launches)
       << " us/launch over " << kp.launches << " launches, predicted "
       << kp.predicted_us / static_cast<double>(kp.launches) << " us at "
       << p.fmax_mhz << " MHz)";
    analysis::DiagLocation loc;
    loc.kernel = kp.name;
    diags.Report(analysis::Diagnostic::Make(analysis::kProfPredictionDrift,
                                            std::move(loc), os.str()));
  }

  if (p.unmatched_events > 0 || p.conservation_error_us > 1e-3) {
    std::ostringstream os;
    os << "attribution invariant violated: " << p.unmatched_events
       << " kernel event(s) did not match the launch plan, max conservation "
          "gap "
       << p.conservation_error_us << " us";
    diags.Report(analysis::Diagnostic::Make(analysis::kProfAttributionGap, {},
                                            os.str()));
  }

  if (p.makespan_us > 0 && !p.queues.empty() && !p.kernels.empty()) {
    double idle = 0.0;
    for (const auto& q : p.queues) idle += q.idle_us;
    const double frac =
        idle / (p.makespan_us * static_cast<double>(p.queues.size()));
    if (frac > kOverheadFraction) {
      std::ostringstream os;
      os.precision(3);
      os << "queues sit idle " << frac * 100.0
         << "% of the makespan (launch overhead, host gaps, and stalls "
            "dominate "
         << p.makespan_us << " us)";
      diags.Report(analysis::Diagnostic::Make(
          analysis::kProfOverheadDominant, {}, os.str()));
    }
  }
}

}  // namespace clflow::prof
