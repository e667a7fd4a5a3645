// The CLF diagnostic-code registry.
//
// Every diagnostic the static-analysis layer (and the runtime, for the
// failures it shares with the dataflow checker) can emit is identified by
// a stable "CLFxxx" code. Families:
//
//   CLF1xx  IR verifier: well-formedness and safety of scheduled kernels
//   CLF2xx  dataflow checker: channel graph / queue hazards of a plan
//   CLF3xx  perf lints: the paper's performance diagnoses (warnings)
//   CLF4xx  schedule primitives: illegal applications (ScheduleError)
//   CLF5xx  runtime faults: dynamic failures detected (or recovered) by
//           the hardened ocl::Runtime (RuntimeFaultError)
//   CLF6xx  profiler: model-vs-measurement discrepancies found by
//           clflow::prof when attributing runtime behaviour
//   CLF7xx  telemetry: request-level SLO and flight-recorder findings
//           raised by clflow::telemetry while monitoring Deployment::Run
//   CLF8xx  source linter: clflow::srclint proves the emitted OpenCL C
//           source matches the plan (translation validation), plus
//           source-level dependence/bounds/hygiene lints
//
// The memory-safety pairs -- CLF102/CLF806 bounds, CLF103/CLF805
// dependence, CLF106/CLF809 (and CLF808) initialization -- are each
// proved once, by the access model (analysis/access_model.hpp), and
// reported through the IR verifier's and srclint's front ends.
//
// This header is intentionally free of dependencies (and of a .cpp) so
// that any layer -- including ocl::Runtime, which must name the same code
// the static checker would have reported -- can reference codes without
// linking against clflow_analysis.
#pragma once

#include <string_view>

namespace clflow::analysis {

enum class Severity { kError, kWarning, kNote };

[[nodiscard]] constexpr std::string_view SeverityName(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

/// Static description of one diagnostic code. `paper_ref` points at the
/// section of the thesis that motivates the check; `default_fixit` is the
/// generic remedy (emission sites may specialize it).
struct CodeInfo {
  std::string_view id;
  Severity default_severity = Severity::kError;
  std::string_view title;
  std::string_view paper_ref;
  std::string_view default_fixit;
};

// --- IR verifier ------------------------------------------------------------
inline constexpr CodeInfo kUndefinedVar{
    "CLF101", Severity::kError, "use of undefined variable", "SS5.3",
    "bind the variable with an enclosing loop or declare it as a kernel "
    "scalar argument"};
inline constexpr CodeInfo kOutOfBounds{
    "CLF102", Severity::kError, "buffer access out of bounds", "SS4.2",
    "re-check the tiling factors against the buffer shape"};
inline constexpr CodeInfo kUnrollDependence{
    "CLF103", Severity::kError,
    "unrolled loop carries a cross-lane dependence", "SS4.1",
    "do not unroll loops whose lanes read elements written by other lanes"};
inline constexpr CodeInfo kScopeViolation{
    "CLF104", Severity::kError, "buffer scope violation", "SS4.5",
    "constant buffers are read-only and channels must use "
    "read_channel/write_channel"};
inline constexpr CodeInfo kUnrollNonConst{
    "CLF105", Severity::kError,
    "unroll annotation on a non-constant extent", "SS4.1",
    "bind the symbolic extent (or split off a constant inner loop) before "
    "unrolling"};
inline constexpr CodeInfo kUninitRead{
    "CLF106", Severity::kError,
    "read of never-written on-chip buffer", "SS4.5",
    "initialize the private/local buffer before the first load"};

// --- Dataflow checker -------------------------------------------------------
inline constexpr CodeInfo kChannelNoWriter{
    "CLF201", Severity::kError, "channel read has no producer", "SS4.6",
    "enqueue the producing kernel (or drop the channel input) -- this "
    "deadlocks on hardware"};
inline constexpr CodeInfo kChannelEndpoints{
    "CLF202", Severity::kError,
    "channel must have exactly one writer and one reader", "SS4.6",
    "Intel channels are point-to-point; split the channel per endpoint "
    "pair"};
inline constexpr CodeInfo kChannelDeadlock{
    "CLF203", Severity::kError,
    "channel ordering/FIFO depth deadlocks an in-order queue", "SS4.6",
    "enqueue the producer first and give the channel a FIFO depth covering "
    "everything it buffers, or move the consumer to its own queue"};
inline constexpr CodeInfo kAutorunWithArgs{
    "CLF204", Severity::kError, "autorun kernel takes arguments", "SS4.7",
    "autorun kernels cannot receive host arguments; stream weights through "
    "channels or disable autorun"};
inline constexpr CodeInfo kQueueHazard{
    "CLF205", Severity::kError,
    "cross-queue data hazard without a channel", "SS4.8",
    "connect the kernels with a channel or place them on one in-order "
    "queue"};

// --- Perf lints -------------------------------------------------------------
inline constexpr CodeInfo kUnpinnedStride{
    "CLF301", Severity::kWarning,
    "unpinned symbolic stride defeats access coalescing", "SS5.3",
    "apply PinStrideVars (recipe.pin_strides) to bind the innermost "
    "strides to 1"};
inline constexpr CodeInfo kGlobalAccumulator{
    "CLF302", Severity::kWarning,
    "reduction through global memory forces II=5", "SS4.5/SS5.1.1",
    "set cached_writes (recipe.fuse_and_cache) to accumulate in private "
    "registers"};
inline constexpr CodeInfo kNonDivisibleUnroll{
    "CLF303", Severity::kWarning,
    "unroll factor does not divide the loop extent", "SS4.11",
    "choose a factor dividing the extent so no epilogue loop is needed"};
inline constexpr CodeInfo kNonBurstAccess{
    "CLF304", Severity::kWarning,
    "non-sequential addressing defeats DDR bursts", "SS6.3.2",
    "restructure the index (avoid div/mod flattened addressing) so "
    "accesses stream contiguously"};
inline constexpr CodeInfo kMissedAutorun{
    "CLF305", Severity::kWarning,
    "weightless channel-only kernel is not autorun", "SS4.7",
    "mark the kernel autorun (recipe.autorun) to remove host dispatch "
    "overhead"};

// --- Schedule primitives ----------------------------------------------------
inline constexpr CodeInfo kScheduleTargetMissing{
    "CLF401", Severity::kError, "schedule target not found", "SS4.2",
    "name an existing (and unique) loop/buffer/argument of the kernel"};
inline constexpr CodeInfo kScheduleBadBound{
    "CLF402", Severity::kError,
    "loop bound not schedulable (symbolic extent or nonzero min)", "SS4.1",
    "schedule primitives need constant zero-based loops; split or bind the "
    "bound first"};
inline constexpr CodeInfo kScheduleNonDivisible{
    "CLF403", Severity::kError,
    "factor does not divide the loop extent", "SS4.11",
    "choose a dividing factor -- the flow generates no epilogue loops"};
inline constexpr CodeInfo kScheduleStructure{
    "CLF405", Severity::kError,
    "schedule primitive does not match the loop structure", "SS4.3",
    "the transform needs adjacent/perfectly-nested loops of matching "
    "shape"};

// --- Runtime faults ---------------------------------------------------------
inline constexpr CodeInfo kRuntimeUnknownKernel{
    "CLF501", Severity::kError,
    "kernel not present in the programmed bitstream", "SS5.2",
    "reprogram the device with a bitstream containing the kernel, or fix "
    "the launch name"};
inline constexpr CodeInfo kRuntimeChannelDeadlock{
    "CLF502", Severity::kError,
    "runtime watchdog: channel writer never arrived", "SS4.6",
    "the producing kernel hung or was never enqueued; inspect the queue "
    "snapshot and the stalled channel, then re-run with the producer fixed"};
inline constexpr CodeInfo kRuntimeTransferFailed{
    "CLF503", Severity::kError,
    "host<->device transfer failed after bounded retries", "App. A",
    "raise RetryPolicy::max_attempts or investigate the link; every "
    "attempt and backoff is visible in the event trace"};
inline constexpr CodeInfo kRuntimeKernelCorrupt{
    "CLF504", Severity::kError,
    "kernel output checksum mismatch persisted across reruns", "SS4.5",
    "more consecutive corruptions than RetryPolicy::max_attempts; check "
    "the design's timing margin (fmax droop) before raising the bound"};
inline constexpr CodeInfo kRuntimeDeviceLost{
    "CLF505", Severity::kWarning,
    "device reset recovered by reprogramming", "SS6.2",
    "the runtime reprogrammed the device and re-dispatched; the reprogram "
    "time is charged to the batch (ocl.resilience.reprograms)"};
inline constexpr CodeInfo kRuntimeChannelProtocol{
    "CLF506", Severity::kError,
    "dynamic channel-protocol violation", "SS4.6",
    "the launch stream violated the point-to-point channel contract the "
    "static dataflow checker enforces (see the CLF2xx code in the "
    "message); run the compile-time gate"};
inline constexpr CodeInfo kRuntimeBadOptions{
    "CLF507", Severity::kError,
    "runtime options failed validation", "App. A",
    "RuntimeOptions requires watchdog_timeout > 0, retry.max_attempts >= 1, "
    "retry.backoff_multiplier > 0, and non-negative backoff_base / "
    "reprogram_cost; fix DeployOptions::runtime before compiling"};

// --- High availability ------------------------------------------------------
inline constexpr CodeInfo kReplicaQuarantined{
    "CLF508", Severity::kWarning,
    "replica quarantined by the circuit breaker", "SS6.2",
    "consecutive hard faults crossed HaOptions::quarantine_after; the "
    "board's flight recorder was dumped and it re-enters service via a "
    "half-open probe after cooldown_batches successful dispatches "
    "elsewhere"};
inline constexpr CodeInfo kBatchFailover{
    "CLF509", Severity::kNote,
    "in-flight batch re-issued on a replica", "SS6.2",
    "the serving board raised a CLF5xx fault mid-batch; the dispatcher "
    "replayed the batch on a healthy replica (host memory holds the "
    "functional state, so the replay is bit-exact)"};
inline constexpr CodeInfo kAllReplicasDown{
    "CLF510", Severity::kWarning,
    "all replicas quarantined; serving from the folded fallback", "SS6.2",
    "every board's circuit breaker is open; batches degrade to the "
    "CompileWithFallback folded baseline until a half-open probe "
    "succeeds"};

// --- Profiler ---------------------------------------------------------------
inline constexpr CodeInfo kProfPredictionDrift{
    "CLF601", Severity::kWarning,
    "observed kernel time drifts from the synthesis model", "SS6.2",
    "the static estimate no longer explains the measured time (fmax droop, "
    "contention, or a stale cost model); re-synthesize or recalibrate the "
    "cost model before trusting DSE rankings"};
inline constexpr CodeInfo kProfAttributionGap{
    "CLF602", Severity::kError,
    "bottleneck attribution fails its conservation invariant", "SS6.2",
    "the attributed components do not sum to the event's wall time; the "
    "profiler's event/invocation matching is stale -- re-run with a fresh "
    "event stream (ClearEvents between batches)"};
inline constexpr CodeInfo kProfOverheadDominant{
    "CLF603", Severity::kWarning,
    "launch overhead and queue idle dominate the makespan", "SS4.7",
    "kernels are too small for per-launch dispatch cost; fold layers "
    "together, batch inputs, or mark channel-only kernels autorun"};

// --- Telemetry --------------------------------------------------------------
inline constexpr CodeInfo kSloLatencyBurn{
    "CLF701", Severity::kWarning,
    "latency-SLO error budget burning above threshold", "SS6.2",
    "the windowed violation rate exceeds the declared error budget; check "
    "telemetry.slo.burn_rate and the per-request flight-recorder spans for "
    "what slowed the violating requests (fmax droop, retries, stalls)"};
inline constexpr CodeInfo kRequestStarvation{
    "CLF702", Severity::kWarning,
    "request spent most of its latency starved on a queue", "SS4.8",
    "the request's channel-stall share exceeds the starvation threshold; "
    "rebalance the queue assignment or raise the starving producer's "
    "priority before blaming kernel throughput"};
inline constexpr CodeInfo kFlightRecorderOverflow{
    "CLF703", Severity::kNote,
    "flight recorder overflowed before the dump", "SS6.2",
    "the ring keeps the last FlightRecorder::kDefaultCapacity (256) events, "
    "so the postmortem covers only the batches just before the fault"};

// --- Source linter (srclint) ------------------------------------------------
inline constexpr CodeInfo kSrcParseFailure{
    "CLF800", Severity::kError,
    "emitted source does not parse as the expected dialect", "SS4.9",
    "the .cl text left the emitter's grammar -- an emitter bug or external "
    "edit; repro: example_flow_inspector lint <net> <board> --src --inject "
    "parse"};
inline constexpr CodeInfo kSrcSignatureMismatch{
    "CLF801", Severity::kError,
    "kernel signature does not match the plan", "SS4.9",
    "argument names/types/qualifiers or autorun attributes diverge from the "
    "scheduled kernel; repro: example_flow_inspector lint <net> <board> "
    "--src --inject sig"};
inline constexpr CodeInfo kSrcChannelSequence{
    "CLF802", Severity::kError,
    "channel op sequence does not match the plan", "SS4.6/SS4.9",
    "the ordered read/write_channel_intel ops in the source diverge from the "
    "kernel's channel graph; repro: example_flow_inspector lint <net> "
    "<board> --src --inject chan-endpoint"};
inline constexpr CodeInfo kSrcUnrollMismatch{
    "CLF803", Severity::kError,
    "loop structure or unroll pragma does not match the schedule", "SS4.1",
    "a '#pragma unroll' annotation was dropped, added, or re-factored "
    "relative to the scheduled loop nest; repro: example_flow_inspector lint "
    "<net> <board> --src --inject unroll"};
inline constexpr CodeInfo kSrcChannelDecl{
    "CLF804", Severity::kError,
    "channel declaration does not match the plan", "SS4.6",
    "channel element type/depth/extension pragma diverge from the channel "
    "graph (a wrong element type silently reinterprets every payload); "
    "repro: example_flow_inspector lint <net> <board> --src --inject "
    "chan-type"};
inline constexpr CodeInfo kSrcLoopCarried{
    "CLF805", Severity::kError,
    "loop-carried dependence on an on-chip array", "SS4.1/SS5.1.1",
    "an iteration reads an element a previous iteration wrote (distance "
    "reported); restructure to a shift register or do not pipeline; repro: "
    "example_flow_inspector lint <net> <board> --src --inject loop-dep"};
inline constexpr CodeInfo kSrcIndexOob{
    "CLF806", Severity::kError,
    "provably out-of-bounds on-chip array index", "SS4.2",
    "interval analysis proves the index exceeds the declared extent for some "
    "reachable iteration; repro: example_flow_inspector lint <net> <board> "
    "--src --inject oob"};
inline constexpr CodeInfo kSrcMissingRestrict{
    "CLF807", Severity::kWarning,
    "global pointer argument lacks 'restrict'", "SS4.4",
    "without restrict AOC must assume aliasing and serializes bursts; add "
    "the qualifier in the emitter; repro: example_flow_inspector lint <net> "
    "<board> --src --inject restrict"};
inline constexpr CodeInfo kSrcDeadStore{
    "CLF808", Severity::kWarning,
    "on-chip buffer is written but never read", "SS4.5",
    "the array burns BRAM/registers without feeding any output or channel; "
    "drop it or wire it up; repro: example_flow_inspector lint <net> <board> "
    "--src --inject dead-store"};
inline constexpr CodeInfo kSrcUninitSrcRead{
    "CLF809", Severity::kWarning,
    "read of a private/local buffer before any store", "SS4.5",
    "the first-iteration read sees undefined data; emit an init loop before "
    "the accumulation; repro: example_flow_inspector lint <net> <board> "
    "--src --inject uninit"};

/// All registered codes, in documentation order.
inline constexpr const CodeInfo* kAllCodes[] = {
    &kUndefinedVar,     &kOutOfBounds,      &kUnrollDependence,
    &kScopeViolation,   &kUnrollNonConst,   &kUninitRead,
    &kChannelNoWriter,  &kChannelEndpoints, &kChannelDeadlock,
    &kAutorunWithArgs,  &kQueueHazard,      &kUnpinnedStride,
    &kGlobalAccumulator, &kNonDivisibleUnroll, &kNonBurstAccess,
    &kMissedAutorun,    &kScheduleTargetMissing, &kScheduleBadBound,
    &kScheduleNonDivisible, &kScheduleStructure,
    &kRuntimeUnknownKernel, &kRuntimeChannelDeadlock, &kRuntimeTransferFailed,
    &kRuntimeKernelCorrupt, &kRuntimeDeviceLost, &kRuntimeChannelProtocol,
    &kRuntimeBadOptions, &kReplicaQuarantined, &kBatchFailover,
    &kAllReplicasDown,
    &kProfPredictionDrift, &kProfAttributionGap, &kProfOverheadDominant,
    &kSloLatencyBurn,   &kRequestStarvation, &kFlightRecorderOverflow,
    &kSrcParseFailure,  &kSrcSignatureMismatch, &kSrcChannelSequence,
    &kSrcUnrollMismatch, &kSrcChannelDecl,  &kSrcLoopCarried,
    &kSrcIndexOob,      &kSrcMissingRestrict, &kSrcDeadStore,
    &kSrcUninitSrcRead,
};

/// Looks up a code by its "CLFxxx" id; nullptr when unknown.
[[nodiscard]] constexpr const CodeInfo* FindCode(std::string_view id) {
  for (const CodeInfo* info : kAllCodes) {
    if (info->id == id) return info;
  }
  return nullptr;
}

}  // namespace clflow::analysis
