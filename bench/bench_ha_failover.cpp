// HA failover bench: goodput retained and failover latency when one of
// two replicas dies permanently.
//
// Two ReplicaSets run the same 200 timing-only LeNet batches on a 2-board
// deployment: a healthy baseline, and a degraded run where board 1 hangs
// on every batch it is offered (a permanently dead board). The dispatcher
// must quarantine the dead board after two consecutive faults, keep
// serving every batch from board 0 (no batch lost), and pay only bounded
// half-open probes for the rest of the run.
//
// Shape to reproduce: with one of two boards serving, goodput retained is
// exactly 0.5 of the healthy baseline (the simulated makespan doubles and
// the dead board's watchdog charges stay off the critical path), and the
// mean failover latency is dominated by the configured 2ms hang watchdog.
// Everything is simulated time, so every metric is bit-stable and
// bench_diff gates the committed baseline with no ignores.
#include "bench_util.hpp"

#include "ha/replica_set.hpp"
#include "resilience/fault.hpp"

using namespace clflow;

namespace {

constexpr int kBatches = 200;

core::DeployOptions Options() {
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.recipe.concurrent_execution = true;
  o.board = fpga::Stratix10SX();
  // A tight watchdog bounds hang-detection latency; it is the dominant
  // term of the failover cost below.
  o.runtime.watchdog_timeout = SimTime::Ms(2.0);
  return o;
}

ha::HaOptions HaOpts() {
  ha::HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 2;
  // A long cooldown keeps the dead board quarantined for most of the run;
  // the few half-open probes that do fire all fail and re-quarantine it.
  ha.cooldown_batches = 64;
  return ha;
}

/// Board 1 hangs k_conv1 on every invocation it will ever see.
std::shared_ptr<resilience::FaultInjector> DeadBoardPlan() {
  resilience::FaultPlan plan;
  plan.seed = bench::kBenchSeed;
  for (int i = 0; i < 64; ++i) {
    resilience::FaultSpec s;
    s.kind = resilience::FaultKind::kKernelHang;
    s.target = "k_conv1";
    s.index = i;
    plan.specs.push_back(s);
  }
  return std::make_shared<resilience::FaultInjector>(plan);
}

SimTime Makespan(ha::ReplicaSet& rs) {
  SimTime m;
  for (int b = 0; b < rs.num_replicas(); ++b) {
    m = std::max(m, rs.replica(b).runtime().now());
  }
  return m;
}

}  // namespace

int main() {
  bench::Banner("HA failover: goodput retained with a dead replica",
                "robustness evaluation (DESIGN.md section 15)");

  Rng rng(bench::kBenchSeed);
  graph::Graph lenet = nets::BuildLeNet5(rng);
  Tensor image = nets::SyntheticMnistImage(rng);

  // --- Healthy baseline: both boards serve ----------------------------------
  ha::ReplicaSet healthy(lenet, Options(), HaOpts());
  for (int i = 0; i < kBatches; ++i) {
    (void)healthy.Run(image, /*functional=*/false);
  }
  const SimTime mak_h = Makespan(healthy);
  const double fps_h = kBatches / mak_h.seconds();

  // --- Degraded: board 1 permanently dead -----------------------------------
  ha::ReplicaSet faulted(lenet, Options(), HaOpts());
  faulted.set_fault_injector(1, DeadBoardPlan());
  for (int i = 0; i < kBatches; ++i) {
    (void)faulted.Run(image, /*functional=*/false);
  }
  const SimTime mak_f = Makespan(faulted);
  const double fps_f = kBatches / mak_f.seconds();
  const double goodput_retained = mak_h.seconds() / mak_f.seconds();
  const double failover_latency_us =
      faulted.failovers() > 0
          ? faulted.recovery_time().us() /
                static_cast<double>(faulted.failovers())
          : 0.0;
  const ha::BoardState& dead = faulted.board_state(1);

  Table table({"Deployment", "Batches", "Makespan ms", "FPS", "Failovers",
               "Quarantines", "Probes"});
  table.AddRow({"2 healthy boards", std::to_string(kBatches),
                Table::Num(mak_h.ms(), 2), Table::Num(fps_h, 1), "0", "0",
                "0"});
  table.AddRow({"board 1 dead", std::to_string(kBatches),
                Table::Num(mak_f.ms(), 2), Table::Num(fps_f, 1),
                std::to_string(faulted.failovers()),
                std::to_string(dead.quarantines),
                std::to_string(dead.probes)});
  table.Print();
  std::printf(
      "\ngoodput retained %.3f (bound: >= 0.5), mean failover latency "
      "%.1f us (watchdog 2000 us), max detection %.1f us\n",
      goodput_retained, failover_latency_us,
      faulted.max_detection_latency().us());

  bench::BenchSnapshot json("ha_failover");
  json.Metric("batches", kBatches);
  json.Metric("healthy.makespan_us", mak_h.us());
  json.Metric("healthy.fps", fps_h);
  json.Metric("faulted.makespan_us", mak_f.us());
  json.Metric("faulted.fps", fps_f);
  json.Metric("goodput_retained", goodput_retained);
  json.Metric("failover.latency_us", failover_latency_us);
  json.Metric("failover.detection_max_us",
              faulted.max_detection_latency().us());
  json.Metric("failover.count", static_cast<double>(faulted.failovers()));
  json.Metric("failover.quarantines", static_cast<double>(dead.quarantines));
  json.Metric("failover.probes", static_cast<double>(dead.probes));
  json.Metric("batches_completed",
              static_cast<double>(faulted.batches_completed()));
  json.Metric("fallback_runs", static_cast<double>(faulted.fallback_runs()));
  json.Write();

  // The acceptance gate: every batch completes and goodput retained stays
  // at or above half the healthy baseline.
  if (faulted.batches_completed() != kBatches) {
    std::fprintf(stderr, "FAIL: lost batches (%lld of %d completed)\n",
                 static_cast<long long>(faulted.batches_completed()),
                 kBatches);
    return 1;
  }
  if (goodput_retained < 0.5 - 1e-12) {
    std::fprintf(stderr, "FAIL: goodput retained %.6f < 0.5\n",
                 goodput_retained);
    return 1;
  }
  if (faulted.fallback_runs() != 0) {
    std::fprintf(stderr,
                 "FAIL: the surviving board should serve every batch, but "
                 "%lld went to the fallback\n",
                 static_cast<long long>(faulted.fallback_runs()));
    return 1;
  }
  return 0;
}
