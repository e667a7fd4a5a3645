// Deterministic fault injection for the simulated runtime.
//
// Real PAC deployments fail in ways the paper's flow assumes away:
// transient DMA errors and corrupted transfers, kernels that hang because
// a channel writer never arrives (SS4.6's deadlock, observed on hardware),
// thermally throttled clocks, and device resets that force a reprogram.
// The FaultInjector replays such failures *deterministically* inside the
// simulator: a FaultPlan (seed + list of FaultSpecs) pins exactly which
// command fails, how often, and with which bit-flip mask, so the same
// plan produces the identical event stream and metrics on every run --
// recovery logic can be tested like any other pure function.
//
// ocl::Runtime consults the injector at its enqueue/dispatch points and
// reacts per RetryPolicy: transfers get bounded retry with exponential
// backoff (simulated-time cost), kernels get checksum verify-and-rerun,
// resets trigger a reprogram charge, and hangs are converted by the
// watchdog into a structured RuntimeFaultError instead of an unbounded
// wait.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace clflow::resilience {

enum class FaultKind {
  kTransferFail,     ///< the DMA runs but reports failure
  kTransferCorrupt,  ///< the DMA completes with flipped bits (checksum catch)
  kKernelHang,       ///< kernel never completes; its channels never ready
  kKernelCorrupt,    ///< kernel output fails the checksum verify
  kFmaxDroop,        ///< thermal throttling: clock scaled by `factor`
  kDeviceReset,      ///< device lost before dispatch; reprogram required
};

[[nodiscard]] std::string_view FaultKindName(FaultKind kind);

/// One planned fault. `target` is "write"/"read" for transfer kinds and a
/// kernel name otherwise (ignored for kFmaxDroop). `index` selects the
/// nth matching transfer / nth invocation of the kernel (0-based).
/// `times` is the number of consecutive attempts that fail before the
/// fault clears -- the knob that exercises retry ladders. `factor` is the
/// clock multiplier for kFmaxDroop.
struct FaultSpec {
  FaultKind kind = FaultKind::kTransferFail;
  std::string target;
  std::int64_t index = 0;
  int times = 1;
  double factor = 1.0;

  [[nodiscard]] std::string ToString() const;
};

/// CLI/spec-string syntax (flow_inspector run/serve --inject-fault):
///
///   xfer-fail:<write|read>[:index[:times]]     e.g. xfer-fail:write:2
///   xfer-corrupt:<write|read>[:index[:times]]  e.g. xfer-corrupt:read:0
///   hang:<kernel>[:index]                      e.g. hang:k_conv3x3
///   corrupt:<kernel>[:index[:times]]           e.g. corrupt:k_dense:0:2
///   fmax-droop:<factor>                        e.g. fmax-droop:0.9
///   reset:<kernel>[:index]                     e.g. reset:k_pool:1
///
/// Throws clflow::Error on malformed specs.
[[nodiscard]] FaultSpec ParseFaultSpec(const std::string& spec);

/// A complete, reproducible fault scenario.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> specs;

  /// "seed=N spec spec ..." -- the chaos-report rendering of a scenario.
  [[nodiscard]] std::string ToString() const;
};

/// Retry/backoff/watchdog parameters the hardened runtime applies when a
/// fault (injected or real) is detected. Backoff is exponential:
/// attempt n waits backoff_base * multiplier^n of simulated time.
struct RetryPolicy {
  int max_attempts = 4;  ///< total tries per command (1 + retries)
  SimTime backoff_base = SimTime::Us(50.0);
  double backoff_multiplier = 2.0;
  /// Simulated cost of reprogramming the device after a reset.
  SimTime reprogram_cost = SimTime::Ms(50.0);

  [[nodiscard]] SimTime BackoffFor(int attempt) const;
};

/// One fault actually delivered to the runtime, for logs and the
/// determinism contract (same plan => identical `injected()` sequence).
struct InjectedFault {
  FaultKind kind = FaultKind::kTransferFail;
  std::string target;
  std::int64_t occurrence = 0;  ///< transfer index / kernel invocation
  int attempt = 0;              ///< which retry attempt saw the fault
  std::uint32_t mask = 0;       ///< bit-flip mask (corruption kinds)

  [[nodiscard]] std::string ToString() const;
};

/// What the injector tells the runtime about one transfer attempt.
struct TransferFault {
  enum class Action { kNone, kFail, kCorrupt };
  Action action = Action::kNone;
  std::uint32_t mask = 0;        ///< XOR mask applied to one word
  std::int64_t word_index = 0;   ///< which float of the payload is hit
};

/// What the injector tells the runtime about one kernel dispatch.
struct KernelFault {
  bool hang = false;
  bool reset = false;
  /// Number of consecutive executions whose output checksum fails
  /// (0 = clean). The runtime reruns until clean or max_attempts.
  int corrupt_times = 0;
};

/// Stateful, deterministic fault source. All decisions derive from the
/// plan plus internal occurrence counters; the seeded Rng only shapes
/// corruption masks/word indices, never *whether* a fault fires.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Consulted once per transfer attempt. attempt 0 advances the
  /// per-direction occurrence counter; attempt > 0 re-tests the same
  /// occurrence (a retry).
  [[nodiscard]] TransferFault OnTransferAttempt(bool is_write, int attempt,
                                                std::int64_t num_words);

  /// Consulted once per kernel dispatch (advances the kernel's invocation
  /// counter).
  [[nodiscard]] KernelFault OnKernelDispatch(const std::string& name);

  /// Product of all kFmaxDroop factors (1.0 when none).
  [[nodiscard]] double fmax_factor() const { return fmax_factor_; }

  /// Every fault delivered so far, in delivery order.
  [[nodiscard]] const std::vector<InjectedFault>& injected() const {
    return injected_;
  }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  double fmax_factor_ = 1.0;
  std::int64_t write_count_ = 0;
  std::int64_t read_count_ = 0;
  std::map<std::string, std::int64_t> kernel_invocations_;
  std::vector<InjectedFault> injected_;
};

}  // namespace clflow::resilience
