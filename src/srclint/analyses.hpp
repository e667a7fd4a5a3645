// The CLF8xx analyses (internal to srclint; entry points in srclint.hpp).
#pragma once

#include <vector>

#include "srclint/srclint.hpp"

namespace clflow::srclint {

/// CLF801-804: proves the parsed program matches the planned kernels.
void ValidateAgainstPlan(const SrcProgram& program,
                         const std::vector<const ir::Kernel*>& kernels,
                         analysis::DiagnosticEngine& diags);

/// CLF805-809: plan-free dependence, bounds, and hygiene lints on one
/// parsed kernel.
void LintKernelSource(const SrcKernel& kernel,
                      analysis::DiagnosticEngine& diags);

}  // namespace clflow::srclint
