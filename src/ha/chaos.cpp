#include "ha/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/compile_cache.hpp"
#include "graph/graph.hpp"
#include "ha/replica_set.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace clflow::ha {

namespace {

using obs::JsonEscape;

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

/// Client batches issued per scenario (each checked against the oracle).
constexpr int kChaosBatchesPerScenario = 3;
/// Fault specs per scenario are drawn uniformly from [1, kChaosMaxFaults].
constexpr int kChaosMaxFaults = 3;
/// Invariant 3: max simulated time a single batch may burn in failed
/// attempts before completing.
constexpr SimTime kChaosRecoveryBound = SimTime::Ms(150.0);
/// Watchdog for the scenario runtimes, kept tight so hang scenarios are
/// detected in bounded simulated time. It replaces the caller's
/// DeployOptions::runtime.watchdog_timeout.
constexpr SimTime kChaosWatchdogTimeout = SimTime::Ms(5.0);

/// Draws one random FaultSpec. `times` is allowed past the retry cap
/// (max_attempts = 4) so a slice of scenarios is unrecoverable in place
/// and must fail over.
resilience::FaultSpec DrawSpec(Rng& rng,
                               const std::vector<std::string>& kernels,
                               int batches) {
  resilience::FaultSpec s;
  switch (rng.Below(6)) {
    case 0:
    case 1: {
      s.kind = rng.Below(2) == 0 ? resilience::FaultKind::kTransferFail
                                 : resilience::FaultKind::kTransferCorrupt;
      s.target = rng.Below(2) == 0 ? "write" : "read";
      s.index = static_cast<std::int64_t>(
          rng.Below(static_cast<std::uint64_t>(batches)));
      s.times = 1 + static_cast<int>(rng.Below(5));
      break;
    }
    case 2:
      s.kind = resilience::FaultKind::kKernelHang;
      s.target = kernels[rng.Below(kernels.size())];
      s.index = static_cast<std::int64_t>(
          rng.Below(static_cast<std::uint64_t>(batches)));
      break;
    case 3:
      s.kind = resilience::FaultKind::kKernelCorrupt;
      s.target = kernels[rng.Below(kernels.size())];
      s.index = static_cast<std::int64_t>(
          rng.Below(static_cast<std::uint64_t>(batches)));
      s.times = 1 + static_cast<int>(rng.Below(5));
      break;
    case 4:
      s.kind = resilience::FaultKind::kDeviceReset;
      s.target = kernels[rng.Below(kernels.size())];
      s.index = static_cast<std::int64_t>(
          rng.Below(static_cast<std::uint64_t>(batches)));
      break;
    default:
      s.kind = resilience::FaultKind::kFmaxDroop;
      s.factor = 0.7 + 0.3 * rng.NextFloat();
      if (s.factor > 1.0) s.factor = 1.0;
      break;
  }
  return s;
}

/// Invariant 4: the exported ha.* gauges must re-derive the conservation
/// sums the in-memory counters claim. Returns the violated relation, or
/// "" when the books balance.
std::string CheckGaugeConservation(const ReplicaSet& rs) {
  obs::Registry reg;
  rs.ExportMetrics(reg);
  const double requested = reg.gauge("ha.batches.requested").value();
  const double completed = reg.gauge("ha.batches.completed").value();
  const double fallback = reg.gauge("ha.fallback_runs").value();
  const double attempts = reg.gauge("ha.attempts").value();
  const double failovers = reg.gauge("ha.failovers").value();
  if (requested != completed) {
    return "gauge ha.batches.requested (" + std::to_string(requested) +
           ") != ha.batches.completed (" + std::to_string(completed) + ")";
  }
  double dispatched = 0.0, board_completed = 0.0, faults = 0.0;
  for (int b = 0; b < rs.num_replicas(); ++b) {
    const obs::Labels l = {{"board", rs.BoardLabel(b)}};
    const double d = reg.gauge("ha.board.dispatched", l).value();
    const double c = reg.gauge("ha.board.completed", l).value();
    const double f = reg.gauge("ha.board.faults", l).value();
    if (d != c + f) {
      return "board " + std::to_string(b) + ": dispatched (" +
             std::to_string(d) + ") != completed + faults (" +
             std::to_string(c + f) + ")";
    }
    dispatched += d;
    board_completed += c;
    faults += f;
  }
  if (dispatched != attempts) {
    return "sum of ha.board.dispatched (" + std::to_string(dispatched) +
           ") != ha.attempts (" + std::to_string(attempts) + ")";
  }
  if (board_completed + fallback != completed) {
    return "sum of ha.board.completed + ha.fallback_runs (" +
           std::to_string(board_completed + fallback) +
           ") != ha.batches.completed (" + std::to_string(completed) + ")";
  }
  if (faults != failovers) {
    return "sum of ha.board.faults (" + std::to_string(faults) +
           ") != ha.failovers (" + std::to_string(failovers) + ")";
  }
  return "";
}

/// One newline-terminated field of the digest.
void MixLine(common::Fnv& f, std::string_view s) {
  f.Bytes(s.data(), s.size());
  f.Bytes("\n", 1);
}

}  // namespace

std::uint64_t ChaosReport::Digest() const {
  common::Fnv f;
  f.h = 0xCBF29CE484222325ull;
  for (const ChaosScenario& s : scenarios) {
    MixLine(f, std::to_string(s.index));
    MixLine(f, s.fault_desc);
    MixLine(f, std::to_string(s.batches));
    MixLine(f, std::to_string(s.failovers));
    MixLine(f, std::to_string(s.fallback_runs));
    MixLine(f, std::to_string(s.quarantines));
    MixLine(f, s.recovery_action);
    MixLine(f, s.outcome);
  }
  return f.h;
}

std::string ChaosReport::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"passed\": " << passed << ",\n  \"failed\": " << failed
     << ",\n  \"digest\": \"" << std::hex << Digest() << std::dec
     << "\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ChaosScenario& s = scenarios[i];
    os << "    {\"index\": " << s.index << ", \"faults\": \""
       << JsonEscape(s.fault_desc) << "\", \"batches\": " << s.batches
       << ", \"failovers\": " << s.failovers
       << ", \"fallback_runs\": " << s.fallback_runs
       << ", \"quarantines\": " << s.quarantines
       << ", \"detection_us\": " << s.detection_us
       << ", \"recovery_us\": " << s.recovery_us
       << ", \"recovery_action\": \"" << JsonEscape(s.recovery_action)
       << "\", \"outcome\": \"" << JsonEscape(s.outcome) << "\"}"
       << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string ChaosReport::SummaryTable() const {
  std::map<std::string, int> actions;
  for (const ChaosScenario& s : scenarios) ++actions[s.recovery_action];
  std::ostringstream os;
  os << "chaos campaign: " << passed << " passed, " << failed << " failed ("
     << scenarios.size() << " scenarios)\n";
  for (const auto& [action, count] : actions) {
    os << "  recovery=" << action << ": " << count << "\n";
  }
  for (const ChaosScenario& s : scenarios) {
    if (!s.ok) {
      os << "  FAIL s" << s.index << " [" << s.fault_desc
         << "]: " << s.outcome << "\n";
    }
  }
  return os.str();
}

ChaosReport RunChaosCampaign(const graph::Graph& g,
                             const core::DeployOptions& base_options,
                             const ChaosOptions& options) {
  CLFLOW_CHECK_MSG(options.scenarios >= 1, "chaos needs >= 1 scenario");

  // One template compile validates the design (full analysis gate as the
  // caller configured it) and names the kernels faults can target. Every
  // scenario then recompiles through a shared cache with the gate off.
  core::DeployOptions tmpl = base_options;
  if (!tmpl.compile_cache) {
    tmpl.compile_cache = std::make_shared<core::CompileCache>();
  }
  tmpl.flightrec_path.clear();
  core::Deployment probe = core::Deployment::Compile(g, tmpl);
  if (!probe.ok()) {
    throw Error("chaos campaign: design does not synthesize: " +
                probe.bitstream().status_detail);
  }
  std::vector<std::string> kernels;
  kernels.reserve(probe.kernels().size());
  for (const auto& pk : probe.kernels()) {
    kernels.push_back(pk.built.kernel.name);
  }
  CLFLOW_CHECK_MSG(!kernels.empty(), "design has no kernels to fault");
  const graph::Graph oracle_graph = probe.fused_graph();
  const Shape in_shape = g.node(g.input_id()).output_shape;

  core::DeployOptions sopts = tmpl;
  sopts.analysis.verify = false;
  sopts.analysis.lint_source = false;
  sopts.functional_threads = 1;  // determinism at any jobs setting
  sopts.runtime.watchdog_timeout = kChaosWatchdogTimeout;

  ChaosReport report;
  report.scenarios.resize(static_cast<std::size_t>(options.scenarios));

  ParallelFor(
      0, options.scenarios, options.jobs,
      [&](std::int64_t idx) {
        const int i = static_cast<int>(idx);
        ChaosScenario& sc = report.scenarios[static_cast<std::size_t>(i)];
        sc.index = i;
        sc.batches = kChaosBatchesPerScenario;
        // All randomness in the scenario flows from this one seed.
        Rng rng(options.seed ^
                (kGolden * (static_cast<std::uint64_t>(i) + 1)));

        // Scatter 1..kChaosMaxFaults specs across the replicas.
        std::vector<resilience::FaultPlan> plans(
            static_cast<std::size_t>(options.replicas));
        const int num_faults =
            1 + static_cast<int>(
                    rng.Below(static_cast<std::uint64_t>(kChaosMaxFaults)));
        for (int f = 0; f < num_faults; ++f) {
          const auto board =
              rng.Below(static_cast<std::uint64_t>(options.replicas));
          plans[board].specs.push_back(
              DrawSpec(rng, kernels, kChaosBatchesPerScenario));
        }
        std::ostringstream desc;
        for (std::size_t b = 0; b < plans.size(); ++b) {
          plans[b].seed = rng.NextU64();
          if (b) desc << " | ";
          desc << "b" << b << ":" << plans[b].ToString();
        }
        sc.fault_desc = desc.str();

        try {
          HaOptions ha;
          ha.replicas = options.replicas;
          ha.quarantine_after = 2;
          ha.cooldown_batches = 2;
          if (!options.flightrec_prefix.empty()) {
            ha.flightrec_prefix =
                options.flightrec_prefix + "s" + std::to_string(i) + "_";
          }
          ReplicaSet rs(g, sopts, ha);
          for (int b = 0; b < options.replicas; ++b) {
            rs.set_fault_injector(
                b, std::make_shared<resilience::FaultInjector>(
                       plans[static_cast<std::size_t>(b)]));
          }

          for (int batch = 0; batch < kChaosBatchesPerScenario;
               ++batch) {
            const Tensor input = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
            const Tensor expected = graph::Execute(oracle_graph, input, 1);
            HaRunResult r = rs.Run(input, /*functional=*/true);

            // Invariant 1: bit-exact against the CPU oracle.
            const Tensor got = r.output.Reshaped(expected.shape());
            const auto gs = got.data();
            const auto es = expected.data();
            if (gs.size() != es.size() ||
                !std::equal(gs.begin(), gs.end(), es.begin())) {
              sc.outcome = "invariant 1 violated: batch " +
                           std::to_string(batch) +
                           " diverges from the CPU oracle";
              return;
            }
            // Invariant 3: bounded recovery time per batch.
            if (r.recovery_time > kChaosRecoveryBound) {
              sc.outcome = "invariant 3 violated: batch " +
                           std::to_string(batch) + " burned " +
                           std::to_string(r.recovery_time.us()) +
                           "us recovering (bound " +
                           std::to_string(kChaosRecoveryBound.us()) +
                           "us)";
              return;
            }
            if (r.used_fallback) {
              sc.recovery_action = "fallback";
            } else if (r.failovers() > 0 &&
                       sc.recovery_action != "fallback") {
              sc.recovery_action = "failover";
            }
          }

          // Invariant 2: conservation of batches in the counters.
          if (rs.batches_requested() != kChaosBatchesPerScenario ||
              rs.batches_completed() != rs.batches_requested()) {
            sc.outcome = "invariant 2 violated: requested " +
                         std::to_string(rs.batches_requested()) +
                         ", completed " +
                         std::to_string(rs.batches_completed());
            return;
          }
          std::int64_t board_completed = 0;
          for (int b = 0; b < rs.num_replicas(); ++b) {
            const BoardState& st = rs.board_state(b);
            if (st.dispatched != st.completed + st.faults) {
              sc.outcome = "invariant 2 violated: board " +
                           std::to_string(b) + " books don't balance";
              return;
            }
            board_completed += st.completed;
            sc.quarantines += static_cast<int>(st.quarantines);
          }
          if (board_completed + rs.fallback_runs() !=
              rs.batches_completed()) {
            sc.outcome =
                "invariant 2 violated: board completions + fallback runs "
                "!= batches completed";
            return;
          }
          // Invariant 4: the exported gauges re-derive the same books.
          const std::string gauge_err = CheckGaugeConservation(rs);
          if (!gauge_err.empty()) {
            sc.outcome = "invariant 4 violated: " + gauge_err;
            return;
          }

          sc.failovers = static_cast<int>(rs.failovers());
          sc.fallback_runs = static_cast<int>(rs.fallback_runs());
          sc.detection_us = rs.max_detection_latency().us();
          sc.recovery_us = rs.recovery_time().us();
          if (sc.recovery_action == "none" &&
              (rs.failovers() > 0 || sc.quarantines > 0)) {
            sc.recovery_action = "failover";
          }
          if (sc.recovery_action == "none") {
            // Did any board absorb its faults with in-place retries?
            bool retried = false;
            for (int b = 0; b < rs.num_replicas(); ++b) {
              const auto& rt = rs.replica(b).runtime();
              retried = retried || rt.xfer_retries() > 0 ||
                        rt.kernel_reruns() > 0 || rt.reprograms() > 0;
            }
            if (retried) sc.recovery_action = "retry";
          }
          sc.ok = true;
          sc.outcome = "pass";
        } catch (const std::exception& e) {
          sc.ok = false;
          sc.outcome = std::string("exception escaped the dispatcher: ") +
                       e.what();
        }
      });

  for (const ChaosScenario& s : report.scenarios) {
    s.ok ? ++report.passed : ++report.failed;
  }
  return report;
}

}  // namespace clflow::ha
