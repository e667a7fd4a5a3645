// Deterministic chaos-campaign harness for the HA execution layer.
//
// A campaign sweeps seeded resilience::FaultPlan scenarios -- each a
// random mix of transfer failures/corruptions, kernel hangs/corruptions,
// fmax droop, and device resets, scattered across the replicas of a fresh
// ReplicaSet -- and asserts four recovery invariants on every scenario:
//
//   1. bit-exactness: every recovered batch matches the CPU graph oracle
//      exactly (std::equal on the raw floats, not AllClose);
//   2. conservation: no batch is lost or duplicated -- requested ==
//      completed, and per board dispatched == completed + faults;
//   3. bounded recovery: the simulated time burned by failed attempts of
//      any one batch stays under 150 ms (the watchdog converts
//      hangs into structured faults, so detection cannot be unbounded);
//   4. observable accounting: the ha.* gauges exported after the scenario
//      re-derive the same conservation sums (what the operator sees is
//      what happened).
//
// Scenario generation derives only from (campaign seed, scenario index),
// and scenario execution forces one functional thread, so the report --
// including its order-insensitive Digest() -- is identical across reruns
// and at any `jobs` setting. A digest mismatch between two runs means
// nondeterminism crept into the runtime, which is itself a bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/deployment.hpp"

namespace clflow::ha {

/// Every scenario issues 3 client batches (each checked against the
/// oracle) under 1 to 3 fault specs, runs its replicas with a 5 ms
/// watchdog, and bounds the failed-attempt time of any one batch at 150 ms
/// (invariant 3).
struct ChaosOptions {
  int scenarios = 200;
  std::uint64_t seed = 2021;
  int replicas = 2;
  /// Worker threads running scenarios (results are aggregated in index
  /// order, so the report is identical at any setting).
  int jobs = 1;
  /// Per-scenario flight-recorder prefix: scenario i dumps under
  /// "<prefix>s<i>_...". Empty disables dumps (the fast path for tests).
  std::string flightrec_prefix;
};

struct ChaosScenario {
  int index = 0;
  std::string fault_desc;  ///< FaultPlan::ToString per board, "|"-joined
  int batches = 0;
  int failovers = 0;
  int fallback_runs = 0;
  int quarantines = 0;
  double detection_us = 0.0;  ///< max single failed-attempt cost
  double recovery_us = 0.0;   ///< total failed-attempt cost
  /// Strongest recovery mechanism the scenario exercised:
  /// "none" < "retry" < "failover" < "fallback".
  std::string recovery_action = "none";
  bool ok = false;
  std::string outcome;  ///< "pass" or the violated invariant
};

struct ChaosReport {
  std::vector<ChaosScenario> scenarios;
  int passed = 0;
  int failed = 0;

  [[nodiscard]] bool ok() const { return failed == 0 && passed > 0; }
  /// FNV-1a over every scenario's fault spec, counters, and outcome, in
  /// index order. Equal seeds must yield equal digests at any jobs count.
  [[nodiscard]] std::uint64_t Digest() const;
  /// Per-scenario JSON table (the `flow_inspector chaos --report` payload).
  [[nodiscard]] std::string ToJson() const;
  /// Human-readable pass/fail summary with per-action counts.
  [[nodiscard]] std::string SummaryTable() const;
};

/// Runs a chaos campaign for `g`. `base_options` supplies the board /
/// recipe / cost model; the campaign overrides the analysis gate (the
/// design is verified once up front), functional threading (forced to 1
/// for determinism), and the runtime watchdog (5 ms, whatever
/// base_options.runtime.watchdog_timeout says). Throws clflow::Error when
/// the design itself does not compile.
[[nodiscard]] ChaosReport RunChaosCampaign(const graph::Graph& g,
                                           const core::DeployOptions& base_options,
                                           const ChaosOptions& options = {});

}  // namespace clflow::ha
