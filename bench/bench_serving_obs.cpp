// Serving observability bench: pinned-seed load campaigns through a
// replica set, healthy and with one dead board (obs v2).
//
// Two serve::RunLoadCampaign runs drive the same 2-board pipelined LeNet
// deployment with the thesis seed: a healthy Poisson campaign at 70%
// target utilization, and a degraded one where board 1 hangs k_conv1 on
// every batch it is offered. Both campaigns run entirely on the simulated
// clock, so every latency quantile, goodput figure, and the per-request
// FNV digest are bit-stable across hosts and thread counts -- bench_diff
// gates the committed baseline with no ignores.
//
// The run also enforces the obs v2 histogram contract in situ: the
// campaign's log-bucketed serve.latency_us histogram must agree with the
// exact nearest-rank quantiles computed from the request records to
// within 1% relative error.
#include "bench_util.hpp"

#include <cmath>

#include "ha/replica_set.hpp"
#include "resilience/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/observatory.hpp"

using namespace clflow;

namespace {

constexpr int kRequests = 200;

core::DeployOptions Options() {
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.recipe.concurrent_execution = true;
  o.board = fpga::Stratix10SX();
  // A tight watchdog bounds hang-detection latency, which dominates the
  // degraded campaign's tail.
  o.runtime.watchdog_timeout = SimTime::Ms(2.0);
  return o;
}

ha::HaOptions HaOpts() {
  ha::HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 2;
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

serve::LoadgenOptions Campaign() {
  serve::LoadgenOptions lo;
  lo.seed = bench::kBenchSeed;
  lo.requests = kRequests;
  lo.shape = serve::TraceShape::kPoisson;
  return lo;
}

/// Bucketed-vs-exact latency quantile drift, as max relative error over
/// p50/p99 -- the obs v2 acceptance gate (must stay under 1%).
double QuantileDrift(const serve::LoadgenReport& r) {
  const obs::LogHistogram lb =
      r.metrics->histogram("serve.latency_us").log_buckets();
  double drift = 0.0;
  for (const auto& [q, exact] : {std::pair{0.50, r.p50_us},
                                 std::pair{0.99, r.p99_us}}) {
    if (exact <= 0.0) continue;
    drift = std::max(drift, std::abs(lb.Quantile(q) - exact) / exact);
  }
  return drift;
}

void Record(bench::BenchSnapshot& json, const std::string& prefix,
            const serve::LoadgenReport& r) {
  json.Metric(prefix + ".p50_us", r.p50_us);
  json.Metric(prefix + ".p99_us", r.p99_us);
  json.Metric(prefix + ".mean_queue_delay_us", r.mean_queue_delay_us);
  json.Metric(prefix + ".goodput", r.goodput);
  json.Metric(prefix + ".achieved_rps", r.achieved_rps);
  json.Metric(prefix + ".peak_occupancy", r.peak_occupancy);
  json.Metric(prefix + ".failovers", static_cast<double>(r.failovers));
  json.Metric(prefix + ".errors", static_cast<double>(r.errors));
  // bench metrics are doubles; the low 32 digest bits are exactly
  // representable and change whenever the request schedule changes.
  json.Metric(prefix + ".digest32",
              static_cast<double>(r.digest & 0xffffffffULL));
}

}  // namespace

int main() {
  bench::Banner("Serving observability: load campaigns over a replica set",
                "serving observability (DESIGN.md section 17)");

  Rng rng(bench::kBenchSeed);
  graph::Graph lenet = nets::BuildLeNet5(rng);
  Tensor image = nets::SyntheticMnistImage(rng);

  // --- Healthy: both boards serve the Poisson trace -------------------------
  ha::ReplicaSet healthy(lenet, Options(), HaOpts());
  const serve::LoadgenReport h = RunLoadCampaign(healthy, image, Campaign());

  // --- Degraded: board 1 permanently dead -----------------------------------
  ha::ReplicaSet faulted(lenet, Options(), HaOpts());
  faulted.set_fault_injector(1, DeadBoardPlan());
  const serve::LoadgenReport f = RunLoadCampaign(faulted, image, Campaign());

  // --- Determinism: same seed, fresh replica set, same digest ---------------
  ha::ReplicaSet again(lenet, Options(), HaOpts());
  const serve::LoadgenReport h2 = RunLoadCampaign(again, image, Campaign());

  Table table({"Campaign", "Requests", "p50 us", "p99 us", "Goodput",
               "Achieved rps", "Failovers"});
  for (const auto& [label, r] :
       {std::pair<const char*, const serve::LoadgenReport*>{"healthy", &h},
        {"board 1 dead", &f}}) {
    table.AddRow({label, std::to_string(kRequests), Table::Num(r->p50_us, 1),
                  Table::Num(r->p99_us, 1), Table::Pct(r->goodput),
                  Table::Num(r->achieved_rps, 1),
                  std::to_string(r->failovers)});
  }
  table.Print();

  const double drift = std::max(QuantileDrift(h), QuantileDrift(f));
  std::printf(
      "\nbucketed-vs-exact latency quantile drift %.4f%% (bound < 1%%), "
      "digest %016llx (rerun %016llx)\n",
      drift * 100.0, static_cast<unsigned long long>(h.digest),
      static_cast<unsigned long long>(h2.digest));

  bench::BenchSnapshot json("serving_obs");
  json.Metric("requests", kRequests);
  Record(json, "healthy", h);
  Record(json, "faulted", f);
  json.Metric("quantile_drift", drift);
  json.Write();

  // Acceptance gates: reproducible schedules, bounded quantile drift, and
  // the degraded campaign must actually exercise failover.
  if (h.digest != h2.digest) {
    std::fprintf(stderr, "FAIL: same-seed campaigns diverged (%016llx vs "
                         "%016llx)\n",
                 static_cast<unsigned long long>(h.digest),
                 static_cast<unsigned long long>(h2.digest));
    return 1;
  }
  if (drift >= 0.01) {
    std::fprintf(stderr, "FAIL: quantile drift %.4f%% >= 1%%\n",
                 drift * 100.0);
    return 1;
  }
  if (f.failovers == 0) {
    std::fprintf(stderr,
                 "FAIL: dead-board campaign recorded no failovers\n");
    return 1;
  }
  if (h.goodput <= f.goodput) {
    std::fprintf(stderr,
                 "FAIL: degraded goodput %.3f not below healthy %.3f\n",
                 f.goodput, h.goodput);
    return 1;
  }
  return 0;
}
