// Graceful compile-time degradation (the compile half of the resilience
// story).
//
// Deployment::Compile treats fit/route failures as data points; a CI
// pipeline or an auto-deploy service instead wants the flow to *recover*:
// when the requested recipe does not synthesize, walk a degradation
// ladder toward a configuration that does, and report every rung taken.
//
//   folded designs:  halve the largest conv tiling factor per attempt,
//                    then ask the DSE (core::ExploreFoldedTilings) for the
//                    nearest feasible candidate, then fall back to the
//                    naive folded baseline;
//   pipelined designs: drop weight caches, then unrolling, then the
//                    channels/autorun/concurrency host optimizations, and
//                    finally switch the execution mode to folded.
//
// Every attempt -- including the failed ones -- is recorded in the
// returned log and, on success, mirrored into the winning deployment's
// obs::Telemetry as "fallback" spans plus fallback.attempts /
// fallback.recovered gauges, so the recovery is visible in reports and
// the Chrome trace.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/dse.hpp"

namespace clflow::core {

/// One rung of the ladder: what was compiled and how it went.
struct FallbackAttempt {
  int index = 0;
  std::string recipe;  ///< recipe name compiled in this attempt
  std::string delta;   ///< change relative to the previous attempt
  std::string stage;   ///< "complete", "synthesis", "analysis", "schedule"
  std::string status;  ///< "ok", "fit-failed", "route-failed", ...
  std::string detail;  ///< synthesizer/verifier message
  double fmax_mhz = 0.0;  ///< achieved clock (successful attempts)

  [[nodiscard]] std::string ToString() const;
};

struct FallbackResult {
  /// The first deployment that compiled and synthesized, when any did.
  std::optional<Deployment> deployment;
  /// Every attempt in ladder order; back() describes `deployment` when
  /// ok().
  std::vector<FallbackAttempt> attempts;

  [[nodiscard]] bool ok() const { return deployment.has_value(); }
  /// True when the original recipe failed but a degraded one succeeded.
  [[nodiscard]] bool recovered() const {
    return ok() && attempts.size() > 1;
  }
};

/// Compiles `g` with `options`, degrading the recipe one rung per attempt
/// until a deployment synthesizes or six attempts (the original recipe
/// counts as one) are spent. Never
/// throws for fit/route/verify/schedule failures (they become logged
/// attempts); genuine usage errors (malformed graphs etc.) still
/// propagate. The ladder memoizes lowering/synthesis across attempts (and
/// the embedded DSE sweep) through options.compile_cache, or
/// CompileCache::Shared() when that is null: the rungs of a ladder differ
/// only in one tiling family, so most kernels are reused.
[[nodiscard]] FallbackResult CompileWithFallback(const graph::Graph& g,
                                                 const DeployOptions& options);

}  // namespace clflow::core
