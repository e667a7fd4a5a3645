// Warning-level performance lints (tentpole layer 3, part 2).
//
// These reproduce the paper's performance diagnoses as compiler warnings
// with fix-it hints naming the schedule primitive or recipe knob that
// resolves them -- the optimization ladder of Chapter 5, mechanized:
//
//   * CLF301  unpinned symbolic strides defeat AOC's access coalescing
//             (SS5.3; fix: PinStrideVars / recipe.pin_strides)
//   * CLF302  a reduction through a global-memory scratchpad cannot use
//             the single-cycle accumulator and gets II=5 (SS5.1.1; fix:
//             cached_writes / recipe.fuse_and_cache, SS4.5)
//   * CLF303  a partial-unroll factor that does not divide the loop
//             extent forces an epilogue loop (SS4.11 requirement 2)
//   * CLF304  non-sequential addressing (div/mod flattening, uncoalesced
//             unrolled accesses) defeats DDR bursts (SS6.3.2)
//   * CLF305  a weightless channel-only kernel still pays host dispatch;
//             it could be autorun (SS4.7)
//
// LintKernel inspects one scheduled kernel (plus, when available, its
// AnalyzeKernel stats for the access-pattern lints); LintPlan inspects
// plan-level properties. Both return the number of *warnings* added --
// lints never fail a compile unless a severity override promotes them.
#pragma once

#include "analysis/dataflow_checker.hpp"
#include "analysis/diag.hpp"
#include "ir/analysis.hpp"

namespace clflow::analysis {

int LintKernel(const ir::Kernel& kernel, const ir::KernelStats* stats,
               DiagnosticEngine& engine);

int LintPlan(const Plan& plan, DiagnosticEngine& engine);

}  // namespace clflow::analysis
