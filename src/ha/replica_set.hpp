// High-availability execution layer (ROADMAP item 2: a board reset must
// fail over to a replica instead of taking the deployment down).
//
// A ReplicaSet programs the same compiled design onto N simulated boards
// (one core::Deployment, hence one ocl::Runtime, per board) and routes
// batches through a health-driven dispatcher:
//
//   * per-board health state machine
//         healthy -> degraded -> quarantined -> recovering -> healthy
//     fed by the structured CLF5xx RuntimeFaultError signals and by the
//     runtime's recovery counters (a batch that survived only via
//     retries/reruns/reprograms degrades the board; two consecutive
//     clean batches promote it back);
//   * a per-board circuit breaker: `quarantine_after` consecutive hard
//     faults open the breaker; after `cooldown_batches` dispatch rounds
//     the board goes half-open (kRecovering) and the next batch probes it
//     -- success closes the breaker, failure re-opens it with a fresh
//     cooldown;
//   * failover: a batch whose serving board raises a RuntimeFaultError is
//     re-issued on the next eligible replica. Functional state lives in
//     host memory and the replay runs the same verified operators under
//     the same checksum-verified transfers, so the recovered output is
//     bit-exact with the fault-free run;
//   * graceful degradation: when every board is quarantined the batch is
//     served by a lazily compiled CompileWithFallback folded baseline
//     (CLF510) until a half-open probe brings a board back.
//
// Everything is observable: ha.* gauges (ExportMetrics), CLF508/509/510
// diagnostics, failover notes in both boards' flight recorders (the
// postmortem "flow arrow" from the failed attempt to the replay), tracer
// spans per failover/quarantine, and an on-quarantine flight-recorder dump
// per board (sequence-suffixed, never overwriting).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/fallback.hpp"
#include "resilience/fault.hpp"

namespace clflow::ha {

enum class BoardHealth { kHealthy, kDegraded, kQuarantined, kRecovering };

[[nodiscard]] std::string_view BoardHealthName(BoardHealth health);

struct HaOptions {
  int replicas = 2;
  /// Circuit breaker: consecutive hard faults (thrown RuntimeFaultErrors)
  /// that quarantine a board.
  int quarantine_after = 2;
  /// Dispatch rounds a quarantined board sits out before going half-open.
  int cooldown_batches = 8;
  /// Path prefix for per-board flight-recorder postmortems: board i's
  /// escaping faults dump to "<prefix>board<i>_flightrec.json" (sequence-
  /// suffixed after the first) and each quarantine additionally dumps
  /// "<prefix>board<i>_quarantine_flightrec.json". Empty disables both.
  /// Runtime hardening knobs (watchdog, retry caps) come from
  /// DeployOptions::runtime, validated at compile time (CLF507).
  std::string flightrec_prefix;
};

/// Health/accounting state of one board, exposed for tests and reports.
struct BoardState {
  BoardHealth health = BoardHealth::kHealthy;
  int consecutive_faults = 0;  ///< hard faults since the last success
  int consecutive_ok = 0;      ///< clean batches since the last fault
  int cooldown_left = 0;       ///< rounds until a quarantined board half-opens
  std::int64_t dispatched = 0; ///< batch attempts routed here (incl. probes)
  std::int64_t completed = 0;  ///< attempts that returned a result
  std::int64_t faults = 0;     ///< attempts that threw a RuntimeFaultError
  std::int64_t quarantines = 0;
  std::int64_t probes = 0;     ///< half-open probes
};

/// One failed dispatch attempt inside a Run (for reports and the
/// detection-latency bench metric).
struct FailedAttempt {
  int board = -1;
  std::string code;    ///< CLF5xx of the fault
  SimTime cost;        ///< simulated time the failed attempt burned
};

/// One health-state edge of one board, in dispatch order. The serving
/// observatory turns these into a per-board step series (the batch
/// sequence maps onto the load generator's completion clock).
struct HealthTransition {
  std::int64_t batch = 0;  ///< batches_requested() when the edge fired
  int board = -1;
  BoardHealth from = BoardHealth::kHealthy;
  BoardHealth to = BoardHealth::kHealthy;
};

struct HaRunResult {
  Tensor output;
  SimTime latency;  ///< simulated latency of the successful attempt
  /// Simulated time burned by failed attempts before the batch completed
  /// (the chaos campaign's bounded-recovery invariant checks this).
  SimTime recovery_time;
  int board = -1;  ///< serving board; -1 when the fallback served it
  bool used_fallback = false;
  std::vector<FailedAttempt> failed_attempts;

  [[nodiscard]] int failovers() const {
    return static_cast<int>(failed_attempts.size());
  }
};

class ReplicaSet {
 public:
  /// Compiles `g` onto `ha.replicas` boards. Board 0 compiles with
  /// `options` as given (full analysis gate); boards 1..N-1 reuse a shared
  /// CompileCache and skip the redundant re-verification of the identical
  /// design. Throws when the design does not synthesize.
  ReplicaSet(const graph::Graph& g, const core::DeployOptions& options,
             HaOptions ha = {});

  [[nodiscard]] int num_replicas() const {
    return static_cast<int>(replicas_.size());
  }
  [[nodiscard]] core::Deployment& replica(int board) {
    return replicas_[static_cast<std::size_t>(board)];
  }
  [[nodiscard]] const BoardState& board_state(int board) const {
    return boards_[static_cast<std::size_t>(board)];
  }
  [[nodiscard]] BoardHealth health(int board) const {
    return boards_[static_cast<std::size_t>(board)].health;
  }
  [[nodiscard]] const HaOptions& options() const { return ha_; }

  /// Stable metric label for one board: its FPGA key plus replica index
  /// ("s10sx0"), or "fallback" for board -1. This is the `board` label
  /// value on every ha.board.* series.
  [[nodiscard]] std::string BoardLabel(int board) const;

  /// Every health-state edge so far, in dispatch order.
  [[nodiscard]] const std::vector<HealthTransition>& health_transitions()
      const {
    return transitions_;
  }

  /// Attaches a deterministic fault source to one board's runtime.
  void set_fault_injector(
      int board, std::shared_ptr<resilience::FaultInjector> injector);

  /// Runs one batch through the dispatcher, failing over across replicas
  /// and degrading to the folded fallback as needed. Throws only when no
  /// replica can serve and the fallback cannot compile.
  [[nodiscard]] HaRunResult Run(const Tensor& input, bool functional = true);

  // --- Accounting (the chaos campaign's conservation invariant) -------------

  [[nodiscard]] std::int64_t batches_requested() const {
    return batches_requested_;
  }
  [[nodiscard]] std::int64_t batches_completed() const {
    return batches_completed_;
  }
  /// Total dispatch attempts across boards (client batches + probes).
  [[nodiscard]] std::int64_t attempts() const { return attempts_; }
  [[nodiscard]] std::int64_t failovers() const { return failovers_; }
  [[nodiscard]] std::int64_t fallback_runs() const { return fallback_runs_; }
  /// Total simulated time burned by failed attempts across all batches.
  [[nodiscard]] SimTime recovery_time() const { return recovery_time_; }
  /// Largest single failed-attempt cost seen (detection latency bound).
  [[nodiscard]] SimTime max_detection_latency() const {
    return max_detection_;
  }

  /// HA-level diagnostics: CLF508 quarantines, CLF509 failovers, CLF510
  /// fallback service.
  [[nodiscard]] analysis::DiagnosticEngine& diagnostics() const {
    return *diags_;
  }
  /// HA-level tracer (failover/quarantine/fallback spans) and registry.
  [[nodiscard]] obs::Telemetry& telemetry() const { return *telemetry_; }

  /// Writes the ha.* gauges: ha.replicas, ha.batches.requested/completed,
  /// ha.attempts, ha.failovers, ha.fallback_runs, ha.recovery_us, and per
  /// board (label board=N) ha.board.state / dispatched / completed /
  /// faults / quarantines / probes.
  void ExportMetrics(obs::Registry& registry,
                     const obs::Labels& base_labels = {}) const;

  /// The lazily compiled folded fallback, when any batch needed it.
  [[nodiscard]] const std::optional<core::Deployment>& fallback() const {
    return fallback_;
  }

 private:
  /// Next board to try for the current batch: a half-open board wanting
  /// its probe wins, else round-robin over healthy+degraded boards not in
  /// `attempted`. -1 when none is eligible.
  int PickBoard(const std::vector<bool>& attempted);
  void OnSuccess(int board, bool clean);
  void OnFault(int board, const RuntimeFaultError& err);
  void TickCooldowns();
  void NoteTransition(int board, BoardHealth from, BoardHealth to);
  core::Deployment& EnsureFallback();

  HaOptions ha_;
  std::vector<core::Deployment> replicas_;
  std::vector<BoardState> boards_;
  /// Per-board baseline of the runtime recovery counters, to detect
  /// batches that recovered via retries (healthy -> degraded edge).
  struct RecoveryBaseline {
    std::int64_t xfer_retries = 0, kernel_reruns = 0, reprograms = 0;
  };
  std::vector<RecoveryBaseline> baselines_;
  std::vector<std::uint64_t> quarantine_dumps_;  ///< per-board dump seq
  std::vector<HealthTransition> transitions_;
  int cursor_ = 0;  ///< round-robin position
  std::int64_t batches_requested_ = 0;
  std::int64_t batches_completed_ = 0;
  std::int64_t attempts_ = 0;
  std::int64_t failovers_ = 0;
  std::int64_t fallback_runs_ = 0;
  SimTime recovery_time_;
  SimTime max_detection_;
  std::shared_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<analysis::DiagnosticEngine> diags_;
  core::DeployOptions base_options_;
  graph::Graph graph_;  ///< for the lazy fallback compile
  std::optional<core::Deployment> fallback_;
};

}  // namespace clflow::ha
