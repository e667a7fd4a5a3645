// The CLF8xx analyses (internal to srclint; entry points in srclint.hpp).
#pragma once

#include <vector>

#include "analysis/access_model.hpp"
#include "srclint/srclint.hpp"

namespace clflow::srclint {

/// CLF801-804: proves the parsed program matches the planned kernels.
void ValidateAgainstPlan(const SrcProgram& program,
                         const std::vector<const ir::Kernel*>& kernels,
                         analysis::DiagnosticEngine& diags);

/// CLF805-809: plan-free dependence, bounds, and hygiene lints on one
/// kernel; CLF805/806/808/809 are the access model's findings.
void LintKernelSource(const SrcKernel& kernel,
                      analysis::DiagnosticEngine& diags);

/// The access stream behind LintKernelSource: the source front end of the
/// access model, for comparing with the IR verifier's.
[[nodiscard]] analysis::AccessStream KernelAccessStream(const SrcKernel& kernel);

}  // namespace clflow::srclint
