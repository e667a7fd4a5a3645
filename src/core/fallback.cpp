#include "core/fallback.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace clflow::core {

namespace {

/// Total compile attempts of the ladder (the original recipe counts as
/// one).
constexpr int kFallbackMaxAttempts = 6;

/// Halves the largest >1 channel-tiling factor across the conv families
/// (power-of-two factors stay divisors of every layer they divided
/// before; W2vec is left alone because halving 7 would break
/// divisibility). Returns false when every factor is already 1.
bool HalveLargestTiling(OptimizationRecipe& recipe, std::string& delta) {
  struct Knob {
    std::int64_t* factor;
    const char* name;
  };
  Knob knobs[] = {
      {&recipe.conv1x1.c2, "conv1x1.c2"}, {&recipe.conv1x1.c1, "conv1x1.c1"},
      {&recipe.conv3x3.c1, "conv3x3.c1"}, {&recipe.conv_large.c1,
                                           "conv_large.c1"},
      {&recipe.conv_dw.c1, "conv_dw.c1"},
  };
  Knob* largest = nullptr;
  for (Knob& k : knobs) {
    if (*k.factor > 1 && (largest == nullptr || *k.factor > *largest->factor)) {
      largest = &k;
    }
  }
  if (largest == nullptr) return false;
  const std::int64_t before = *largest->factor;
  *largest->factor = before / 2;
  delta = std::string("halved ") + largest->name + " " +
          std::to_string(before) + "->" + std::to_string(*largest->factor);
  return true;
}

/// Picks the next rung for a folded design. `tried_dse` persists across
/// attempts so the (comparatively expensive) exploration runs at most
/// once.
bool DegradeFolded(const graph::Graph& g, DeployOptions& cur,
                   bool& tried_dse, std::string& delta) {
  if (HalveLargestTiling(cur.recipe, delta)) return true;
  if (!tried_dse) {
    tried_dse = true;
    // The sweep shares the ladder's cache: kernels already compiled by
    // earlier rungs are hits inside the exploration.
    DseOptions dse_opts;
    dse_opts.cache = cur.compile_cache;
    const DseResult dse =
        ExploreFoldedTilings(g, cur.board, dse_opts, cur.cost_model);
    if (!dse.ranked.empty()) {
      const DseCandidate& best = dse.best();
      cur.recipe.conv1x1 = best.conv1x1;
      cur.recipe.conv3x3 = best.conv3x3;
      cur.recipe.conv_dw = best.conv_dw;
      std::ostringstream os;
      os << "DSE nearest-feasible tiling (1x1 C1/W2/C2=" << best.conv1x1.c1
         << '/' << best.conv1x1.w2 << '/' << best.conv1x1.c2
         << ", predicted " << best.predicted_fps << " fps)";
      delta = os.str();
      return true;
    }
  }
  const OptimizationRecipe base = FoldedBase();
  if (cur.recipe.name != base.name) {
    cur.recipe = base;
    delta = "fell back to the naive folded baseline";
    return true;
  }
  return false;
}

/// Picks the next rung for a pipelined design: shed area-hungry kernel
/// optimizations first, then the host-side extras, then leave pipelined
/// execution entirely.
bool DegradePipelined(DeployOptions& cur, std::string& delta) {
  OptimizationRecipe& r = cur.recipe;
  if (r.weight_cache) {
    r.weight_cache = false;
    delta = "dropped on-chip weight caches";
    return true;
  }
  if (r.unroll) {
    r.unroll = false;
    delta = "dropped filter/dense unrolling";
    return true;
  }
  if (r.channels || r.autorun || r.concurrent_execution) {
    r.channels = r.autorun = r.concurrent_execution = false;
    delta = "dropped channels/autorun/concurrency (global-memory handoff)";
    return true;
  }
  cur.mode = ExecutionMode::kFolded;
  cur.recipe = FoldedBase();
  delta = "switched execution mode pipelined -> folded baseline";
  return true;
}

/// Mirrors the attempt log into the winning deployment's telemetry so the
/// recovery shows up in reports and the Chrome trace.
void RecordAttempts(Deployment& d,
                    const std::vector<FallbackAttempt>& attempts) {
  obs::Telemetry& t = d.telemetry();
  for (const FallbackAttempt& a : attempts) {
    obs::ScopedSpan span(&t.tracer,
                         "fallback:attempt" + std::to_string(a.index),
                         "fallback");
    span.Arg("recipe", a.recipe);
    span.Arg("delta", a.delta);
    span.Arg("stage", a.stage);
    span.Arg("status", a.status);
    if (!a.detail.empty()) span.Arg("detail", a.detail);
  }
  t.registry.gauge("fallback.attempts")
      .Set(static_cast<double>(attempts.size()));
  t.registry.gauge("fallback.recovered")
      .Set(attempts.size() > 1 ? 1.0 : 0.0);
}

}  // namespace

std::string FallbackAttempt::ToString() const {
  std::ostringstream os;
  os << "attempt " << index << ": " << recipe << " (" << delta << ") -> "
     << status;
  if (status == "ok" && fmax_mhz > 0.0) os << " @ " << fmax_mhz << " MHz";
  if (!detail.empty() && status != "ok") os << " [" << detail << "]";
  return os.str();
}

FallbackResult CompileWithFallback(const graph::Graph& g,
                                   const DeployOptions& options) {
  FallbackResult result;
  DeployOptions cur = options;
  if (!cur.compile_cache) {
    cur.compile_cache = CompileCache::SharedPtr();
  }
  std::string delta = "requested recipe";
  bool tried_dse = false;

  for (int attempt = 0; attempt < kFallbackMaxAttempts; ++attempt) {
    FallbackAttempt a;
    a.index = attempt;
    a.recipe = cur.recipe.name;
    a.delta = delta;
    try {
      Deployment d = Deployment::Compile(g, cur);
      if (d.ok()) {
        a.stage = "complete";
        a.status = "ok";
        a.fmax_mhz = d.bitstream().fmax_mhz;
        a.detail = d.bitstream().status_detail;
        result.attempts.push_back(std::move(a));
        RecordAttempts(d, result.attempts);
        result.deployment.emplace(std::move(d));
        return result;
      }
      a.stage = "synthesis";
      a.status = d.bitstream().status == fpga::SynthStatus::kFitError
                     ? "fit-failed"
                     : "route-failed";
      a.detail = d.bitstream().status_detail;
    } catch (const VerifyError& e) {
      a.stage = "analysis";
      a.status = "verify-failed";
      a.detail = e.what();
    } catch (const ScheduleError& e) {
      a.stage = "schedule";
      a.status = "schedule-failed";
      a.detail = e.what();
    }
    result.attempts.push_back(std::move(a));

    const bool more =
        cur.mode == ExecutionMode::kFolded
            ? DegradeFolded(g, cur, tried_dse, delta)
            : DegradePipelined(cur, delta);
    if (!more) break;
  }
  return result;
}

}  // namespace clflow::core
