// Request-scoped trace context.
//
// A TraceContext identifies one inference request as it flows from
// Deployment::Run through the simulated runtime's enqueue/transfer/kernel
// events. Ids are deterministic by construction -- the deployment hands
// out trace ids from a monotonic per-deployment counter and the runtime
// numbers spans in enqueue order on the (single) host thread -- so the
// same program produces bit-identical ids on every run and at every
// worker-thread count. No wall clock, no randomness.
//
// This header is dependency-free on purpose: ocl::Runtime stamps contexts
// into its event pool (ocl::EventPool) without linking clflow_telemetry.
#pragma once

#include <cstdint>

namespace clflow::telemetry {

/// Identity of one in-flight request. trace_id 0 means "no request
/// context" (events recorded outside Deployment::Run keep it).
struct TraceContext {
  std::uint64_t trace_id = 0;
  /// Span id of the enclosing request span; child events point back at it.
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

}  // namespace clflow::telemetry
