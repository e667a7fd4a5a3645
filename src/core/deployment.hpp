// The end-to-end compilation flow (paper Ch. 3).
//
// Deployment::Compile takes a network graph, applies operator fusion,
// plans either a pipelined or a folded execution (Ch. 3), builds scheduled
// kernels with the recipe's optimizations (Ch. 4/5), synthesizes them with
// the AOC model, and -- when the design fits and routes -- produces a
// runnable deployment whose Run() performs functional inference (verified
// numbers) under a simulated-time schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dataflow_checker.hpp"
#include "analysis/diag.hpp"
#include "core/recipes.hpp"
#include "fpga/synth.hpp"
#include "graph/graph.hpp"
#include "ir/op_kernels.hpp"
#include "obs/span.hpp"
#include "ocl/runtime.hpp"
#include "telemetry/flight_recorder.hpp"

namespace clflow::core {

class CompileCache;

/// Controls the static-analysis gate that runs inside Compile.
struct AnalysisOptions {
  /// Run the IR verifier on every finished kernel and the dataflow
  /// checker / perf linter on the finished plan. Error-severity findings
  /// abort compilation with VerifyError.
  bool verify = true;
  /// Re-parse the emitted OpenCL source and prove it matches the plan
  /// (clflow::srclint, the CLF8xx family). Runs inside the same gate as
  /// `verify`; error-severity findings abort compilation with VerifyError.
  bool lint_source = true;
  /// Per-code severity overrides ("CLF301" -> kError promotes a lint to a
  /// compile failure; "CLF203" -> kWarning demotes a deadlock check for
  /// experiments that knowingly violate it on the simulator).
  std::map<std::string, analysis::Severity> severity_overrides;
  /// Test/demo hook: corrupts the emitted source with the named
  /// srclint::InjectDefect mode before the in-gate lint runs, proving the
  /// gate rejects a broken emission (mirrors `flow_inspector lint --src
  /// --inject`). Empty (the default) lints the real emission.
  std::string srclint_inject;
};

struct DeployOptions {
  ExecutionMode mode = ExecutionMode::kPipelined;
  OptimizationRecipe recipe;
  fpga::BoardSpec board;
  fpga::CostModel cost_model;
  /// Threads used for functional (host-side oracle) execution.
  int functional_threads = 1;
  AnalysisOptions analysis;
  /// Optional content-hashed compile/synthesis cache (see
  /// core/compile_cache.hpp). When set, per-kernel lowering, per-invocation
  /// analysis and per-kernel synthesis results are memoized across Compile
  /// calls by each kernel's content key, in both execution modes;
  /// `compile.cache.hits`/`compile.cache.misses` counters land in this
  /// deployment's telemetry. Null (the default) compiles everything from
  /// scratch.
  std::shared_ptr<CompileCache> compile_cache;
  /// Hardening knobs for the simulated runtime this deployment constructs
  /// (Finish() watchdog timeout, retry/backoff caps). Validated at the top
  /// of Compile: non-positive values are rejected with a structured
  /// CLF507 RuntimeFaultError rather than silently misbehaving.
  ocl::RuntimeOptions runtime;
  /// When non-empty, the flight recorder is dumped to this path whenever a
  /// RuntimeFaultError or VerifyError escapes Run()/Compile() (the
  /// "_flightrec.json" postmortem). Empty (the default) records but never
  /// writes a file -- tests that intentionally inject faults stay quiet.
  /// The second and later dumps of one deployment get a monotonic sequence
  /// suffix (telemetry::SequencedDumpPath) so no postmortem overwrites a
  /// previous one.
  std::string flightrec_path;
};

struct RunResult {
  Tensor output;    ///< undefined on timing-only runs
  SimTime latency;  ///< simulated end-to-end time for this image
  /// Deterministic request id of this Run (first call = 1); every
  /// runtime event the request produced carries it as trace_id.
  std::uint64_t trace_id = 0;
};

/// Per-operation-class profile row (Tables 6.8 / 6.16).
struct OpProfileEntry {
  std::string op_class;
  double flops = 0.0;          ///< per image
  SimTime kernel_time;         ///< per image, kernel execution only
  double runtime_share = 0.0;  ///< of total kernel time
  double gflops = 0.0;
};

/// Runtime breakdown by command kind (Figure 6.2).
struct EventBreakdown {
  SimTime write, kernel, read;
};

/// One synthesized kernel and the label used in profiles/tables.
struct PlannedKernel {
  ir::BuiltKernel built;
  std::string op_class;
  std::string tiling_desc;  ///< human-readable unroll/tile summary
  /// Content key: serialization of the builder spec, schedule, kernel name
  /// and channel endpoints this kernel's IR is a pure function of (one
  /// CompileCache::*KernelKey derivation per spec type). Never empty; keys
  /// the lowering, analysis and synthesis memo tables.
  std::string content_key;
};

/// One runtime launch (a graph node executed by some kernel). Whether it
/// is autorun and which channels it reads and writes are facts of the
/// kernel (ir::Kernel::{autorun, channels_read, channels_written}).
struct PlannedInvocation {
  int kernel_index = -1;
  graph::NodeId node = -1;
  ir::Bindings bindings;
  ir::KernelStats stats;
};

class Deployment {
 public:
  [[nodiscard]] static Deployment Compile(const graph::Graph& g,
                                          const DeployOptions& options);

  /// False when synthesis failed (fit/route); inspect bitstream() for why.
  [[nodiscard]] bool ok() const { return bitstream_.ok(); }
  [[nodiscard]] const fpga::Bitstream& bitstream() const { return bitstream_; }
  [[nodiscard]] const graph::Graph& fused_graph() const { return fused_; }
  [[nodiscard]] const DeployOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<PlannedKernel>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] const std::vector<PlannedInvocation>& invocations() const {
    return invocations_;
  }

  /// Command-queue assignment per invocation (parallel to invocations());
  /// autorun invocations keep their planned id but never touch a queue.
  /// Valid when ok(). The profiler uses this to rebuild per-queue
  /// occupancy from the event stream.
  [[nodiscard]] const std::vector<int>& invocation_queues() const {
    return invocation_queues_;
  }

  /// Runs one image. With functional=true the returned output holds real
  /// numbers computed by the verified reference operators; timing-only
  /// runs return an undefined tensor and are much faster.
  [[nodiscard]] RunResult Run(const Tensor& input, bool functional = true);

  /// Simulated frames per second (one functional warm-up run optional via
  /// `verify_against_reference`, which throws if FPGA output diverges from
  /// the graph oracle).
  [[nodiscard]] double EstimateFps(const Tensor& input,
                                   bool verify_against_reference = false);

  [[nodiscard]] std::vector<OpProfileEntry> ProfileOps();

  /// Per-command-kind breakdown with the event profiler enabled (which
  /// serializes the host, as on real hardware).
  [[nodiscard]] EventBreakdown ProfileEvents(const Tensor& input);

  /// The generated OpenCL C translation unit for the whole design: the
  /// text the source-lint gate printed and checked, or a fresh emission
  /// when that gate did not run.
  [[nodiscard]] std::string GeneratedSource() const;

  /// Compile-side telemetry: per-phase wall-clock spans (fusion, lowering,
  /// every IR pass, synthesis) and pass/synthesis metrics. Populated by
  /// Compile(); always present.
  [[nodiscard]] obs::Telemetry& telemetry() const { return *telemetry_; }

  /// Diagnostics accumulated by the static-analysis gate (IR verifier,
  /// dataflow checker, perf lints). Always present after Compile, even when
  /// options.analysis.verify is false (then it is simply empty).
  [[nodiscard]] analysis::DiagnosticEngine& diagnostics() const {
    return *diags_;
  }

  /// The flight recorder fed by the runtime's command/fault stream and the
  /// request boundaries of Run(). Always present after Compile; dumped to
  /// options().flightrec_path (when set) on an escaping fault.
  [[nodiscard]] telemetry::FlightRecorder& flight_recorder() const {
    return *flightrec_;
  }

  /// The launch plan as the dataflow checker sees it: one PlanStep per
  /// invocation in enqueue order with queue assignments, channel endpoints,
  /// and graph dependence edges. Exposed so external tools (flow_inspector
  /// lint) can re-run or perturb the checks.
  [[nodiscard]] analysis::Plan AnalysisPlan() const;

  /// The live simulated runtime (valid when ok()); exposes the profiled
  /// event stream and accumulated queue/channel/transfer metrics.
  [[nodiscard]] ocl::Runtime& runtime() const;

  /// Exports runtime-side metrics into `registry`: everything
  /// ocl::Runtime::ExportMetrics emits plus per-kernel predicted-vs-
  /// observed time divergence (synthesis-time static estimate against the
  /// per-invocation dynamic schedule).
  void ExportRuntimeMetrics(obs::Registry& registry,
                            const obs::Labels& base_labels = {}) const;

 private:
  Deployment() = default;

  void PlanPipelined(const OptimizationRecipe& recipe);
  void PlanFolded(const OptimizationRecipe& recipe);
  void SynthesizeAll();
  void RecordCompileMetrics();
  void AssignQueues();
  void RunAnalysisGate();
  [[nodiscard]] std::vector<const ir::Kernel*> KernelPtrs() const;
  [[nodiscard]] const ir::Kernel& KernelOf(const PlannedInvocation& inv) const {
    return kernels_[static_cast<std::size_t>(inv.kernel_index)].built.kernel;
  }
  void PrepareRuntime();
  /// Mirrors accumulated diagnostics into the recorder and writes it to
  /// options_.flightrec_path (no-op when the path is empty). Reports
  /// CLF703 when the ring dropped events. Never throws (runs in catches).
  void DumpFlightRecorder() const;
  /// The functor a functional run attaches to the launch of `node`: it
  /// computes the node with the reference operators from acts_.
  [[nodiscard]] std::function<void()> ComputeNode(graph::NodeId node);

  DeployOptions options_;
  std::shared_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<analysis::DiagnosticEngine> diags_;
  std::shared_ptr<telemetry::FlightRecorder> flightrec_;
  /// Dumps written so far; sequences the postmortem filenames (mutable:
  /// DumpFlightRecorder runs inside const catch paths).
  mutable std::uint64_t flightrec_dumps_ = 0;
  /// Request counter backing RunResult::trace_id (first Run = 1).
  std::uint64_t next_trace_id_ = 0;
  graph::Graph fused_;
  std::vector<PlannedKernel> kernels_;
  std::vector<PlannedInvocation> invocations_;
  fpga::Bitstream bitstream_;
  /// The .cl text the source-lint gate printed; empty when it did not run.
  std::string generated_source_;

  // Runtime state (valid when ok()).
  std::unique_ptr<ocl::Runtime> runtime_;
  ocl::BufferPtr input_buffer_;
  ocl::BufferPtr output_buffer_;
  std::vector<int> invocation_queues_;
  int num_queues_ = 1;
  /// The launch table: one row per invocation (parallel to invocations_),
  /// resolved against the programmed bitstream by PrepareRuntime.
  std::vector<ocl::LaunchRow> launches_;
  /// This deployment's "run.latency_us" histogram, resolved once.
  obs::Histogram* latency_us_ = nullptr;
  /// Functional activation map, rebuilt per functional run.
  std::unordered_map<graph::NodeId, Tensor> acts_;
};

}  // namespace clflow::core
