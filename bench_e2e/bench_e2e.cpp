// bench_e2e: clflow's end-to-end benchmark.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S | --ops N]
//             [--trace 0|1] [--out DIR]
//
// One process runs one workload: it sets the workload up kSetups times
// (timing each), then runs ops back to back -- a closed loop on the host --
// for S seconds or exactly N ops. Every op is checked against reference
// outputs computed during set-up. Host times of single-threaded workloads
// are speed-normalized against the frozen calibration kernel in
// harness.hpp; raw values are reported under "wall.".
//
// Workloads, each stressing different layers (README.md gives the reasons):
//   compile_cold      gated Deployment::Compile + emit + timing Run of four
//                     configs, with no compile cache
//   dse_sweep         ExploreFoldedTilings(MobileNet) on three boards
//   infer_functional  functional Run of folded MobileNet-v1 and ResNet-18,
//                     bit-compared against the graph::Execute oracle
//   serve_replicas    healthy and dead-board load campaigns through fresh
//                     2-board pipelined-LeNet ReplicaSets
//
// With --trace 1 every even op is traced (root span, one child per public
// call, Deployment telemetry imported beneath) and odd ops are not, which
// gives the tracing overhead within one run.
//
// Output: "metric <name> <value> <unit>" lines, BENCH_e2e_<workload>.json
// (bench_diff's snapshot schema) in --out, with --trace 1 a Chrome trace in
// --out, and as the last stdout line one JSON object {"correct",
// "attempted", "failed", "metrics"} holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when any check
// fails, 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/compile_cache.hpp"
#include "core/deployment.hpp"
#include "core/dse.hpp"
#include "graph/graph.hpp"
#include "ha/replica_set.hpp"
#include "harness.hpp"
#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "ocl/trace.hpp"
#include "resilience/fault.hpp"
#include "serve/loadgen.hpp"

namespace clflow::bench_e2e {
namespace {

constexpr int kSetups = 3;
constexpr int kMinOps = 4;
constexpr int kServeRequests = 5000;
/// serve_replicas ops cycle through this many loadgen seeds; each campaign
/// must reproduce its seed's set-up reference digest exactly.
constexpr int kSeedCycle = 8;
/// Latency limit for sim_max_rps_at_slo: healthy-campaign p99, simulated us.
constexpr double kSloP99Us = 1000.0;
constexpr double kUtilizationLadder[] = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0};

/// The metrics of the final JSON line; BENCHMARK.json lists the same names
/// and units (run.py checks).
constexpr std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},     {"op_ms_p50", "ms"},   {"op_ms_p90", "ms"},
    {"items_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};
/// Layers whose self time is reported as "<layer>.self_share" of the traced
/// op time: clflow's modules, "dse" for core/dse, the bench's own checks,
/// and what no child span covers.
constexpr const char* kLayers[] = {
    "graph", "ir",  "analysis", "srclint", "codegen", "fpga",  "ocl",
    "core",  "dse", "ha",       "serve",   "bench",   "unattributed",
};
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"op.traced_ms_p50", "ms"},           {"bench.calib_ms", "ms"},
    {"bench.trace_overhead", "fraction"}, {"core.gate_share", "fraction"},
    {"codegen.kb_per_op", "kB"},          {"dse.candidates_per_op", "count"},
    {"dse.cache_hit_rate", "fraction"},   {"ha.failovers_per_op", "count"},
};

int Threads() { return std::min(4, HardwareThreads()); }

/// Named metric values with units, in name order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;
/// Per-op samples keyed by metric name.
using Samples = std::map<std::string, std::vector<double>>;

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// One op as a workload sees it.
struct OpContext {
  int k;
  double scale;  ///< speed normalization of this op's host times
  OpTrace& trace;
  int failed_checks = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from `seed` and the reference outputs ops must match.
  virtual void Setup(std::uint64_t seed) = 0;
  /// Runs one op; returns the items it completed.
  virtual double Op(OpContext& op) = 0;
  /// Traced runs: measurements taken next to op `k`, outside its timing;
  /// `scale` is the op's speed normalization.
  virtual void Probe(int /*k*/, double /*scale*/) {}
  /// Everything beyond the generic op timings, once, after the ops.
  virtual void Report(Metrics& m, bool traced) = 0;
  /// Whether ops run on the calling thread alone. Only those are
  /// speed-normalized: the one-thread calibration kernel does not track ops
  /// spread over Threads() workers (README.md has the measurements).
  [[nodiscard]] virtual bool SingleThreaded() const { return true; }
};

// --- compile_cold ------------------------------------------------------------

/// Sums the program's top-level span durations by name, in ms.
std::map<std::string, double> TopLevelSpanMs(const obs::Tracer& tracer) {
  std::map<std::string, double> ms;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.depth == 0) ms[s.name] += static_cast<double>(s.dur_us) / 1000.0;
  }
  return ms;
}

/// Layer of a span Deployment::Compile records; the analysis gate's
/// diagnostic markers and any phase added later fall to "core".
std::string CompileLayer(const std::string& span) {
  static const std::map<std::string, std::string> kLayer = {
      {"fusion", "graph"},        {"lowering", "ir"},
      {"verify", "analysis"},     {"lint", "analysis"},
      {"srclint", "srclint"},     {"synthesis", "fpga"},
      {"prepare_runtime", "ocl"}, {"codegen", "codegen"},
  };
  const auto it = kLayer.find(span);
  return it == kLayer.end() ? "core" : it->second;
}

class CompileCold : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    Rng rng(seed);
    lenet_ = nets::BuildLeNet5(rng);
    mobilenet_ = nets::BuildMobileNetV1(rng);
    resnet_ = nets::BuildResNet(18, rng);
    mnist_ = nets::SyntheticMnistImage(rng);
    imagenet_ = nets::SyntheticImagenetImage(rng);
    configs_.clear();
    auto add = [&](const char* name, const graph::Graph& g, const Tensor& in,
                   core::ExecutionMode mode, core::OptimizationRecipe recipe) {
      Config c{name, &g, &in, {}, {}, {}};
      c.options.mode = mode;
      c.options.recipe = std::move(recipe);
      c.options.board = fpga::Stratix10SX();
      core::Deployment d = core::Deployment::Compile(g, c.options);
      c.source = d.GeneratedSource();
      c.latency = d.Run(in, false).latency;
      configs_.push_back(std::move(c));
    };
    core::OptimizationRecipe pipelined = core::PipelineTvmAutorun();
    pipelined.concurrent_execution = true;
    add("lenet_pipelined", lenet_, mnist_, core::ExecutionMode::kPipelined,
        pipelined);
    add("lenet_folded", lenet_, mnist_, core::ExecutionMode::kFolded,
        core::FoldedBase());
    add("mobilenet_folded", mobilenet_, imagenet_,
        core::ExecutionMode::kFolded, core::FoldedMobileNet("s10sx"));
    add("resnet18_folded", resnet_, imagenet_, core::ExecutionMode::kFolded,
        core::FoldedResNet());
  }

  double Op(OpContext& op) override {
    Sample gated;
    for (const Config& c : configs_) {
      const auto t0 = std::chrono::steady_clock::now();
      core::Deployment d = op.trace.Call("compile " + c.name, "core", [&] {
        return core::Deployment::Compile(*c.g, c.options);
      });
      gated.ms += MsSince(t0);
      const obs::Tracer& program = d.telemetry().tracer;
      op.trace.Import(program, 0, CompileLayer);
      const std::size_t mark = program.spans().size();
      const std::string source = op.trace.Call(
          "emit " + c.name, "codegen", [&] { return d.GeneratedSource(); });
      op.trace.Import(program, mark, CompileLayer);
      const bool same = op.trace.Call("check " + c.name, "bench", [&] {
        return d.ok() && source == c.source;
      });
      if (!same) {
        ++op.failed_checks;
        continue;
      }
      const core::RunResult r = op.trace.Call(
          "run " + c.name, "ocl", [&] { return d.Run(*c.input, false); });
      if (r.latency != c.latency) ++op.failed_checks;
      if (!op.trace.traced()) continue;
      for (const auto& [name, ms] : TopLevelSpanMs(program)) {
        gated.spans[name] += ms;
      }
      obs::Registry& reg = d.telemetry().registry;
      arena_nodes_ += reg.gauge("compile.arena.nodes").value();
      arena_kb_ += reg.gauge("compile.arena.bytes").value() / 1024.0;
      source_kb_ += static_cast<double>(source.size()) / 1024.0;
    }
    if (op.trace.traced()) {
      gated.scale = op.scale;
      gated_[op.k] = std::move(gated);
    }
    return static_cast<double>(configs_.size());
  }

  /// The ungated twin of a traced op: the same compiles with the analysis
  /// gate off, paired with the op's gated ones for core.gate_share.
  void Probe(int k, double /*scale*/) override {
    Sample ungated;
    for (const Config& c : configs_) {
      core::DeployOptions o = c.options;
      o.analysis.verify = false;
      o.analysis.lint_source = false;
      const auto t0 = std::chrono::steady_clock::now();
      core::Deployment d = core::Deployment::Compile(*c.g, o);
      ungated.ms += MsSince(t0);
      for (const auto& [name, ms] : TopLevelSpanMs(d.telemetry().tracer)) {
        ungated.spans[name] += ms;
      }
    }
    ungated_[k] = std::move(ungated);
  }

  void Report(Metrics& m, bool traced) override {
    std::vector<double> fps;
    for (const Config& c : configs_) {
      fps.push_back(1.0 / c.latency.seconds());
      m["device." + c.name + ".fps"] = {fps.back(), "fps"};
    }
    m["device_fps_geomean"] = {Geomean(fps), "fps"};
    if (!traced || gated_.empty()) return;
    Samples s;
    std::vector<double> gate_share;
    for (const auto& [k, gated] : gated_) {
      const Sample& ungated = ungated_.at(k);
      const double f = gated.scale;
      auto in = [f](const Sample& x, const char* span) {
        const auto it = x.spans.find(span);
        return it == x.spans.end() ? 0.0 : it->second * f;
      };
      s["core.compile_ms"].push_back(gated.ms * f);
      s["core.compile_nogate_ms"].push_back(ungated.ms * f);
      s["graph.fusion_ms"].push_back(in(ungated, "fusion"));
      s["ir.lowering_ms"].push_back(in(ungated, "lowering"));
      s["fpga.synthesis_ms"].push_back(in(ungated, "synthesis"));
      s["ocl.prepare_runtime_ms"].push_back(in(ungated, "prepare_runtime"));
      s["analysis.verify_ms"].push_back(in(gated, "verify"));
      s["analysis.lint_ms"].push_back(in(gated, "lint"));
      s["srclint.gate_ms"].push_back(in(gated, "srclint"));
      s["codegen.emit_ms"].push_back(in(gated, "codegen"));
      // Per-primitive IR verification runs inside lowering; the paired
      // lowering difference is the only way to see it from outside.
      s["analysis.pass_verify_ms"].push_back(in(gated, "lowering") -
                                             in(ungated, "lowering"));
      gate_share.push_back(1.0 - ungated.ms / gated.ms);
    }
    for (const auto& [name, v] : s) m[name] = {Median(v), "ms"};
    m["core.gate_share"] = {Median(gate_share), "fraction"};
    const auto ops = static_cast<double>(gated_.size());
    m["codegen.kb_per_op"] = {source_kb_ / ops, "kB"};
    m["srclint.kb_per_ms"] = {source_kb_ / ops / Median(s["srclint.gate_ms"]),
                              "kB/ms"};
    m["ir.arena_nodes"] = {arena_nodes_ / ops, "count"};
    m["ir.arena_kb"] = {arena_kb_ / ops, "kB"};
  }

 private:
  struct Config {
    std::string name;
    const graph::Graph* g;
    const Tensor* input;
    core::DeployOptions options;
    SimTime latency;
    std::string source;  ///< emitted OpenCL, every op must reproduce it
  };
  /// One op's compiles: wall ms, the program's top-level spans (ms), and
  /// the op's normalization factor.
  struct Sample {
    double ms = 0.0;
    std::map<std::string, double> spans;
    double scale = 1.0;
  };

  graph::Graph lenet_, mobilenet_, resnet_;
  Tensor mnist_, imagenet_;
  std::vector<Config> configs_;
  std::map<int, Sample> gated_, ungated_;
  double arena_nodes_ = 0.0, arena_kb_ = 0.0, source_kb_ = 0.0;
};

// --- dse_sweep ---------------------------------------------------------------

class DseSweep : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    Rng rng(seed);
    mobilenet_ = nets::BuildMobileNetV1(rng);
    boards_.clear();
    for (const fpga::BoardSpec* b :
         {&fpga::Stratix10SX(), &fpga::Stratix10MX(), &fpga::Arria10()}) {
      boards_.push_back({b, Sweep(*b)});
    }
  }

  double Op(OpContext& op) override {
    double candidates = 0.0;
    for (const Board& b : boards_) {
      const auto t0 = std::chrono::steady_clock::now();
      const core::DseResult r = op.trace.Call(
          "explore " + b.spec->key, "dse", [&] { return Sweep(*b.spec); });
      const double ms = MsSince(t0);
      if (!SameResult(r, b.reference)) ++op.failed_checks;
      candidates += static_cast<double>(r.considered);
      if (!op.trace.traced()) continue;
      const std::string p = "dse." + b.spec->key + ".";
      samples_[p + "sweep_ms"].push_back(ms);
      samples_[p + "prewarm_ms"].push_back(r.prewarm.wall_us / 1000.0);
      samples_[p + "imbalance_wait_ms"].push_back(
          r.parallel.imbalance_wait_us / 1000.0);
      samples_[p + "cache_hit_rate"].push_back(r.cache_stats.hit_rate());
      samples_["dse.cache_hit_rate"].push_back(r.cache_stats.hit_rate());
      candidates_[p + "candidates"] = static_cast<double>(r.considered);
    }
    return candidates;
  }

  void Report(Metrics& m, bool traced) override {
    std::vector<double> fps;
    for (const Board& b : boards_) {
      fps.push_back(b.reference.best().predicted_fps);
      m["dse." + b.spec->key + ".best_fps"] = {fps.back(), "fps"};
    }
    m["device_fps_geomean"] = {Geomean(fps), "fps"};
    if (!traced) return;
    for (const auto& [name, v] : samples_) {
      m[name] = {Median(v), name.ends_with("hit_rate") ? "fraction" : "ms"};
    }
    double per_op = 0.0;
    for (const auto& [name, n] : candidates_) {
      m[name] = {n, "count"};
      per_op += n;
    }
    m["dse.candidates_per_op"] = {per_op, "count"};
  }

  [[nodiscard]] bool SingleThreaded() const override { return false; }

 private:
  struct Board {
    const fpga::BoardSpec* spec;
    core::DseResult reference;
  };

  core::DseResult Sweep(const fpga::BoardSpec& board) const {
    core::DseOptions o;
    o.jobs = Threads();
    o.cache = std::make_shared<core::CompileCache>();
    return core::ExploreFoldedTilings(mobilenet_, board, o);
  }

  /// Compares what the sweep's determinism contract covers: every filter
  /// counter and the ranking, independent of thread count.
  static bool SameResult(const core::DseResult& a, const core::DseResult& b) {
    auto counters = [](const core::DseResult& r) {
      return std::tuple(r.considered, r.rejected_divisibility,
                        r.rejected_bandwidth, r.rejected_bound,
                        r.rejected_dominated, r.rejected_fit,
                        r.rejected_route, r.feasible_total);
    };
    auto same = [](const core::DseCandidate& x, const core::DseCandidate& y) {
      return std::tuple(x.conv1x1.c1, x.conv1x1.w2, x.conv1x1.c2,
                        x.predicted_fps, x.fmax_mhz, x.dsps) ==
             std::tuple(y.conv1x1.c1, y.conv1x1.w2, y.conv1x1.c2,
                        y.predicted_fps, y.fmax_mhz, y.dsps);
    };
    return counters(a) == counters(b) &&
           std::equal(a.ranked.begin(), a.ranked.end(), b.ranked.begin(),
                      b.ranked.end(), same);
  }

  graph::Graph mobilenet_;
  std::vector<Board> boards_;
  Samples samples_;
  std::map<std::string, double> candidates_;
};

// --- infer_functional --------------------------------------------------------

class InferFunctional : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    Rng rng(seed);
    nets_.clear();
    Add("mobilenet", nets::BuildMobileNetV1(rng),
        core::FoldedMobileNet("s10sx"), rng);
    Add("resnet18", nets::BuildResNet(18, rng), core::FoldedResNet(), rng);
  }

  double Op(OpContext& op) override {
    for (Net& n : nets_) {
      const auto t0 = std::chrono::steady_clock::now();
      const core::RunResult r = op.trace.Call(
          "run_functional " + n.name, "core", [&] { return n.d->Run(n.image); });
      if (op.trace.traced()) run_ms_[n.name].push_back(MsSince(t0));
      const bool same = op.trace.Call("check " + n.name, "bench", [&] {
        return BitEqual(r.output, n.expected);
      });
      if (!same || r.latency != n.latency) ++op.failed_checks;
    }
    return static_cast<double>(nets_.size());
  }

  /// The oracle alone, next to the traced op's functional runs.
  void Probe(int /*k*/, double /*scale*/) override {
    for (const Net& n : nets_) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)graph::Execute(n.d->fused_graph(), n.image, Threads());
      oracle_ms_[n.name].push_back(MsSince(t0));
    }
  }

  void Report(Metrics& m, bool traced) override {
    std::vector<double> fps;
    for (Net& n : nets_) {
      fps.push_back(1.0 / n.latency.seconds());
      if (!traced) continue;
      n.d->runtime().ClearEvents();
      const auto t0 = std::chrono::steady_clock::now();
      (void)n.d->Run(n.image, false);
      const double timing_ms = MsSince(t0);
      const double run_ms = Median(run_ms_[n.name]);
      const double oracle_ms = Median(oracle_ms_[n.name]);
      m["core." + n.name + ".run_functional_ms"] = {run_ms, "ms"};
      m["cpu." + n.name + ".oracle_ms"] = {oracle_ms, "ms"};
      m["cpu." + n.name + ".gflops"] = {n.flops / (oracle_ms * 1e6),
                                        "GFLOP/s"};
      m["ocl." + n.name + ".run_timing_us"] = {timing_ms * 1000.0, "us"};
      m["ocl." + n.name + ".events"] = {
          static_cast<double>(n.d->runtime().event_pool().size()), "count"};
      m["core." + n.name + ".functional_overhead_ms"] = {
          run_ms - oracle_ms - timing_ms, "ms"};
    }
    m["device_fps_geomean"] = {Geomean(fps), "fps"};
  }

  [[nodiscard]] bool SingleThreaded() const override { return false; }

 private:
  struct Net {
    std::string name;
    std::unique_ptr<core::Deployment> d;
    Tensor image, expected;
    SimTime latency;
    double flops = 0.0;
  };

  void Add(const char* name, const graph::Graph& g,
           core::OptimizationRecipe recipe, Rng& rng) {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = std::move(recipe);
    o.board = fpga::Stratix10SX();
    o.functional_threads = Threads();
    Net n;
    n.name = name;
    n.d = std::make_unique<core::Deployment>(core::Deployment::Compile(g, o));
    n.image = nets::SyntheticImagenetImage(rng);
    n.expected = graph::Execute(n.d->fused_graph(), n.image, Threads());
    n.flops = graph::GraphCost(n.d->fused_graph()).flops;
    n.latency = n.d->Run(n.image, false).latency;
    nets_.push_back(std::move(n));
  }

  static bool BitEqual(const Tensor& a, const Tensor& b) {
    const auto x = a.data();
    const auto y = b.data();
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  }

  std::vector<Net> nets_;
  Samples run_ms_, oracle_ms_;
};

// --- serve_replicas ----------------------------------------------------------

class ServeReplicas : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed);
    lenet_ = nets::BuildLeNet5(rng);
    image_ = nets::SyntheticMnistImage(rng);
    references_.clear();
    for (int i = 0; i < kSeedCycle; ++i) {
      const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
      Reference ref{Serve(s, false), Serve(s, true)};
      if (ref.healthy.errors != 0 || ref.degraded.errors != 0 ||
          ref.degraded.failovers == 0) {
        throw std::runtime_error("reference campaign failed its checks");
      }
      references_.push_back(std::move(ref));
    }
  }

  double Op(OpContext& op) override {
    const Reference& ref =
        references_[static_cast<std::size_t>(op.k % kSeedCycle)];
    for (const serve::LoadgenReport* want : {&ref.healthy, &ref.degraded}) {
      const bool degraded = want == &ref.degraded;
      const std::string variant = degraded ? "degraded" : "healthy";
      const auto t0 = std::chrono::steady_clock::now();
      const serve::LoadgenReport r =
          Serve(want->options.seed, degraded, &op.trace, variant);
      const double ms = MsSince(t0);
      if (r.digest != want->digest || r.errors != 0) ++op.failed_checks;
      if (!op.trace.traced()) continue;
      host_us_["serve." + variant + ".host_us_per_req"].push_back(
          ms * 1000.0 * op.scale / kServeRequests);
      failovers_.push_back(static_cast<double>(r.failovers));
    }
    return 2.0 * kServeRequests;
  }

  /// Host us per timing-only Deployment::Run of the served design, from a
  /// direct loop: the part of a served request that is not dispatch,
  /// loadgen or obs.
  void Probe(int /*k*/, double scale) override {
    constexpr int kRuns = 1000;
    if (!direct_) {
      direct_ = std::make_unique<core::Deployment>(
          core::Deployment::Compile(lenet_, DeployOptions()));
    }
    direct_->runtime().ClearEvents();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRuns; ++i) (void)direct_->Run(image_, false);
    run_us_.push_back(MsSince(t0) * 1000.0 * scale / kRuns);
    events_per_run_ =
        static_cast<double>(direct_->runtime().event_pool().size()) / kRuns;
  }

  void Report(Metrics& m, bool traced) override {
    // Simulated results, averaged over the kSeedCycle reference seeds.
    auto mean = [&](const char* name, const char* unit, auto field) {
      double sum = 0.0;
      for (const Reference& ref : references_) sum += field(ref);
      m[name] = {sum / static_cast<double>(references_.size()), unit};
    };
    mean("sim_p50_us", "us", [](const Reference& r) { return r.healthy.p50_us; });
    mean("sim_p99_us", "us", [](const Reference& r) { return r.healthy.p99_us; });
    mean("sim_goodput", "fraction",
         [](const Reference& r) { return r.healthy.goodput; });
    mean("sim_p99_us_degraded", "us",
         [](const Reference& r) { return r.degraded.p99_us; });
    mean("sim_goodput_degraded", "fraction",
         [](const Reference& r) { return r.degraded.goodput; });
    mean("serve.healthy.mean_queue_delay_us", "us",
         [](const Reference& r) { return r.healthy.mean_queue_delay_us; });
    mean("serve.healthy.peak_occupancy", "count",
         [](const Reference& r) { return r.healthy.peak_occupancy; });
    mean("ha.degraded.failovers", "count", [](const Reference& r) {
      return static_cast<double>(r.degraded.failovers);
    });
    m["sim_max_rps_at_slo"] = {MaxRpsAtSlo(), "1/s"};
    if (!traced) return;
    const double run_us = Median(run_us_);
    m["ocl.lenet.run_timing_us"] = {run_us, "us"};
    m["ocl.lenet.ns_per_event"] = {run_us * 1000.0 / events_per_run_, "ns"};
    for (const auto& [name, v] : host_us_) {
      const double per_req = Median(v);
      m[name] = {per_req, "us"};
      const std::string variant = name.substr(0, name.rfind('.'));
      m[variant + ".overhead_us_per_req"] = {per_req - run_us, "us"};
    }
    double failovers = 0.0;
    for (double f : failovers_) failovers += f;
    // Two campaigns per op.
    m["ha.failovers_per_op"] = {
        2.0 * failovers / static_cast<double>(failovers_.size()), "count"};
  }

 private:
  struct Reference {
    serve::LoadgenReport healthy, degraded;
  };

  /// One campaign through a fresh replica set, as two public calls of
  /// `trace` when given.
  serve::LoadgenReport Serve(std::uint64_t seed, bool degraded,
                             OpTrace* trace = nullptr,
                             const std::string& variant = "") const {
    OpTrace untraced(nullptr, "");
    OpTrace& t = trace != nullptr ? *trace : untraced;
    auto set = t.Call("replicaset " + variant, "ha", [&] {
      return std::make_unique<ha::ReplicaSet>(lenet_, DeployOptions(),
                                              HaOpts());
    });
    if (degraded) set->set_fault_injector(1, DeadBoard(seed));
    return t.Call("campaign " + variant, "serve", [&] {
      return serve::RunLoadCampaign(*set, image_, Campaign(seed));
    });
  }

  static core::DeployOptions DeployOptions() {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kPipelined;
    o.recipe = core::PipelineTvmAutorun();
    o.recipe.concurrent_execution = true;
    o.board = fpga::Stratix10SX();
    // A tight watchdog bounds hang detection, as in bench_serving_obs.
    o.runtime.watchdog_timeout = SimTime::Ms(2.0);
    return o;
  }

  static ha::HaOptions HaOpts() {
    ha::HaOptions ha;
    ha.replicas = 2;
    ha.quarantine_after = 2;
    ha.cooldown_batches = 64;
    return ha;
  }

  /// Board 1 hangs k_conv1 on every invocation a campaign can reach: once
  /// quarantined it is probed once per cooldown, so kServeRequests /
  /// cooldown_batches hangs plus slack cover the whole campaign.
  static std::shared_ptr<resilience::FaultInjector> DeadBoard(
      std::uint64_t seed) {
    resilience::FaultPlan plan;
    plan.seed = seed;
    for (int i = 0; i < kServeRequests / HaOpts().cooldown_batches + 64; ++i) {
      resilience::FaultSpec s;
      s.kind = resilience::FaultKind::kKernelHang;
      s.target = "k_conv1";
      s.index = i;
      plan.specs.push_back(s);
    }
    return std::make_shared<resilience::FaultInjector>(plan);
  }

  static serve::LoadgenOptions Campaign(std::uint64_t seed) {
    serve::LoadgenOptions lo;
    lo.seed = seed;
    lo.requests = kServeRequests;
    lo.shape = serve::TraceShape::kPoisson;
    return lo;
  }

  /// Highest offered rate on the utilization ladder whose healthy p99 stays
  /// within kSloP99Us while completions keep up with arrivals.
  double MaxRpsAtSlo() const {
    double best = 0.0;
    for (double u : kUtilizationLadder) {
      ha::ReplicaSet set(lenet_, DeployOptions(), HaOpts());
      serve::LoadgenOptions lo = Campaign(seed_);
      lo.utilization = u;
      const serve::LoadgenReport r = serve::RunLoadCampaign(set, image_, lo);
      if (r.p99_us <= kSloP99Us && r.achieved_rps >= 0.95 * r.offered_rps) {
        best = std::max(best, r.offered_rps);
      }
    }
    return best;
  }

  std::uint64_t seed_ = 0;
  graph::Graph lenet_;
  Tensor image_;
  std::vector<Reference> references_;
  Samples host_us_;
  std::vector<double> failovers_;
  std::unique_ptr<core::Deployment> direct_;
  std::vector<double> run_us_;
  double events_per_run_ = 0.0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "compile_cold") return std::make_unique<CompileCold>();
  if (name == "dse_sweep") return std::make_unique<DseSweep>();
  if (name == "infer_functional") return std::make_unique<InferFunctional>();
  if (name == "serve_replicas") return std::make_unique<ServeReplicas>();
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 10.0;
  int ops = 0;  ///< > 0: run exactly this many ops, ignoring seconds
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--ops") {
      a.ops = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && a.ops >= 0;
}

std::string ResultLine(bool correct, int attempted, int failed,
                       const Metrics& m, bool traced) {
  std::string metrics;
  auto add = [&](const std::string& name) {
    const auto& [value, unit] = m.at(name);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + obs::JsonNum(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (traced) {
    for (const char* layer : kLayers) add(std::string(layer) + ".self_share");
    for (const auto& [name, unit] : kPerLayer) add(name);
  } else {
    for (const auto& [name, unit] : kEndToEnd) add(name);
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  std::unique_ptr<Workload> w;
  if (!ParseArgs(argc, argv, args) || !(w = MakeWorkload(args.workload))) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload compile_cold|dse_sweep|"
                 "infer_functional|serve_replicas [--seed N] [--seconds S] "
                 "[--ops N] [--trace 0|1] [--out DIR]\n");
    return 2;
  }
  Calibrator calib;
  const bool normalize = w->SingleThreaded();
  std::vector<double> calib_ms;
  auto calibrate = [&] {
    calib_ms.push_back(calib.RunMs());
    return normalize ? Calibrator::kCalibRefMs / calib_ms.back() : 1.0;
  };
  std::vector<double> setup_s, setup_wall_s;
  for (int i = 0; i < kSetups; ++i) {
    const double scale = calibrate();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      w->Setup(args.seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up failed: %s\n", e.what());
      return 1;
    }
    setup_wall_s.push_back(MsSince(t0) / 1000.0);
    setup_s.push_back(setup_wall_s.back() * scale);
  }

  obs::Tracer tracer;
  std::vector<obs::SpanRecord> imported;
  std::map<std::string, std::int64_t> self_us;
  std::int64_t root_us = 0;
  bool nested = true;
  std::vector<double> op_ms, traced_ms, wall_ms;
  // Items and normalized seconds of the untraced ops, for items_per_s.
  double items = 0.0;
  double busy_s = 0.0;
  int attempted = 0;
  int failed = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int k = 0; args.ops > 0 ? k < args.ops
                               : k < kMinOps ||
                                     MsSince(start) < args.seconds * 1000.0;
       ++k) {
    const bool traced = args.trace && k % 2 == 0;
    // Alternate the probe's side so neither the op nor its twin always
    // runs on warmer caches.
    const bool probe_first = (k / 2) % 2 == 1;
    const double scale = calibrate();
    if (traced && probe_first) w->Probe(k, scale);
    OpTrace trace(traced ? &tracer : nullptr, "op " + std::to_string(k));
    OpContext op{k, scale, trace};
    const auto t0 = std::chrono::steady_clock::now();
    double op_items = 0.0;
    try {
      op_items = w->Op(op);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %d failed: %s\n", k, e.what());
      ++op.failed_checks;
    }
    const double ms = MsSince(t0);
    if (traced) {
      const std::int64_t root = trace.Close(self_us, imported);
      nested = nested && root >= 0;
      root_us += std::max<std::int64_t>(root, 0);
      if (!probe_first) w->Probe(k, scale);
    }
    ++attempted;
    if (op.failed_checks > 0) ++failed;
    wall_ms.push_back(ms);
    (traced ? traced_ms : op_ms).push_back(ms * op.scale);
    if (!traced) {
      items += op_items;
      busy_s += ms * op.scale / 1000.0;
    }
  }

  Metrics m;
  const double p50 = Median(op_ms);
  m["setup_s"] = {Median(setup_s), "s"};
  m["op_ms_p50"] = {p50, "ms"};
  m["op_ms_p90"] = {Quantile(op_ms, 0.9), "ms"};
  m["items_per_s"] = {items / busy_s, "1/s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["ops"] = {static_cast<double>(attempted), "count"};
  m["wall.op_ms_p50"] = {Median(wall_ms), "ms"};
  m["wall.setup_s"] = {Median(setup_wall_s), "s"};
  m["bench.calib_ms"] = {Median(calib_ms), "ms"};
  w->Report(m, args.trace);

  bool trace_ok = true;
  if (args.trace) {
    const double traced_p50 = Median(traced_ms);
    m["op.traced_ms_p50"] = {traced_p50, "ms"};
    m["bench.trace_overhead"] = {traced_p50 / p50 - 1.0, "fraction"};
    std::int64_t self_total = 0;
    for (const char* layer : kLayers) {
      const std::int64_t us = self_us[layer];
      self_total += us;
      m[std::string(layer) + ".self_share"] = {
          root_us > 0 ? static_cast<double>(us) / root_us : 0.0, "fraction"};
    }
    // Conservation: every layer's self time is one of kLayers, and the
    // self times add up to the traced ops' root spans.
    nested = nested && self_total == root_us && self_us.size() ==
                                                    std::size(kLayers);
    for (const auto& [name, unit] : kPerLayer) {
      m.try_emplace(name, 0.0, unit);  // layers this workload never calls
    }
    std::vector<obs::SpanRecord> spans = tracer.spans();
    spans.insert(spans.end(), imported.begin(), imported.end());
    const std::string json = ocl::ExportChromeTrace(
        ocl::EventPool{}, spans, "bench_e2e " + args.workload);
    const std::string path =
        args.out + "/trace_e2e_" + args.workload + ".json";
    trace_ok = obs::json::Parse(json).has_value() && WriteFile(path, json);
    if (!nested) std::fprintf(stderr, "span conservation violated\n");
    if (!trace_ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  std::map<std::string, double> snapshot;
  for (const auto& [name, v] : m) {
    std::printf("metric %s %.17g %s\n", name.c_str(), v.first,
                v.second.c_str());
    snapshot[name] = v.first;
  }
  const std::string snap_path =
      args.out + "/BENCH_e2e_" + args.workload + ".json";
  const bool snap_ok =
      WriteSnapshot(snap_path, "e2e_" + args.workload, snapshot);
  if (!snap_ok) std::fprintf(stderr, "cannot write %s\n", snap_path.c_str());

  const bool correct = failed == 0 && nested && trace_ok && snap_ok;
  std::printf("%s\n",
              ResultLine(correct, attempted, failed, m, args.trace).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace clflow::bench_e2e

int main(int argc, char** argv) {
  return clflow::bench_e2e::Main(argc, argv);
}
