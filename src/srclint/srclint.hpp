// clflow::srclint -- source-level OpenCL linter & translation validator.
//
// The IR verifier, dataflow checker, and perf lints all run on the
// *plan*. srclint closes the loop on the emitted source (the tree the
// emitter built, codegen/ast.hpp) and proves that it matches the
// scheduled kernels -- the CLF8xx family:
//
//   CLF800  source does not parse as the emitted dialect
//   CLF801  kernel signature / attributes / locals diverge from the plan
//   CLF802  ordered channel-op sequence diverges from the channel graph
//   CLF803  loop structure or unroll pragmas diverge from the schedule
//   CLF804  channel declarations (type/depth/extension) diverge
//   CLF805  loop-carried dependence on an on-chip array (distance >= 1)
//   CLF806  provably out-of-bounds on-chip index (interval analysis)
//   CLF807  global pointer argument missing 'restrict'        (warning)
//   CLF808  on-chip buffer written but never read              (warning)
//   CLF809  private/local buffer read before any store         (warning)
//
// CLF805/806/808/809 are the access model's findings
// (analysis/access_model.hpp), the same engine the IR verifier's
// CLF102/103/106 come from; analyses.cpp is its source front end.
//
// The validator is deliberately independent of codegen: it keeps its own
// dtype -> type-name mapping and derives every expectation from
// ir::Kernel directly, so a bug in the emitter's own mapping (the
// "channel float for an int channel" class) is catchable rather than
// mirrored. Deployment::Compile's gate lints the tree the emitter built,
// with no parse; the text entry points parse first and serve
// `flow_inspector lint --src`, the `lint --src --inject` corruptions and
// the round-trip test.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "ir/stmt.hpp"
#include "codegen/ast.hpp"

namespace clflow::srclint {

/// srclint's own dtype spelling, intentionally not the emitter's: the
/// cross-check must fail if the emitter's mapping is wrong.
[[nodiscard]] std::string_view ExpectedTypeName(ir::ScalarType t);

/// Parses `source` and runs the plan-free analyses (CLF805-809).
/// A parse failure reports CLF800 and returns nullopt.
std::optional<SrcProgram> LintSource(const std::string& source,
                                     analysis::DiagnosticEngine& diags);

/// Full translation validation of a source tree: the plan-free analyses
/// plus the CLF801-804 cross-checks against the planned kernels. Returns
/// false iff this call reported at least one error-severity diagnostic.
bool LintProgram(const SrcProgram& program,
                 const std::vector<const ir::Kernel*>& kernels,
                 analysis::DiagnosticEngine& diags);

/// The same on text, via LintSource.
bool LintProgram(const std::string& source,
                 const std::vector<const ir::Kernel*>& kernels,
                 analysis::DiagnosticEngine& diags);

}  // namespace clflow::srclint
