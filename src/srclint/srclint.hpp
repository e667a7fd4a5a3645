// clflow::srclint -- source-level OpenCL linter & translation validator.
//
// The rest of the flow trusts the emitter: the IR verifier, dataflow
// checker, and perf lints all run on the *plan*. srclint closes the loop
// by re-parsing the emitted .cl text (lexer/parser) and proving, from the
// text alone, that it matches the scheduled kernels -- the CLF8xx family:
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
// The validator is deliberately independent of codegen: it keeps its own
// dtype -> type-name mapping and derives every expectation from
// ir::Kernel directly, so a bug in the emitter's own mapping (the
// "channel float for an int channel" class) is catchable rather than
// mirrored. Deployment::Compile runs LintProgram as a gate after
// emission; `flow_inspector --lint-src` exposes the same check offline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "ir/stmt.hpp"
#include "srclint/ast.hpp"

namespace clflow::srclint {

/// srclint's own dtype spelling. Intentionally NOT codegen::ClTypeName:
/// the cross-check must fail if the emitter's mapping is wrong.
[[nodiscard]] std::string_view ExpectedTypeName(ir::ScalarType t);

/// Parses `source` and runs the plan-free analyses (CLF805-809).
/// A parse failure reports CLF800 and returns nullopt.
std::optional<SrcProgram> LintSource(const std::string& source,
                                     analysis::DiagnosticEngine& diags);

/// Full translation validation: LintSource plus the CLF801-804
/// cross-checks of `source` against the planned kernels. Returns false
/// iff this call reported at least one error-severity diagnostic.
bool LintProgram(const std::string& source,
                 const std::vector<const ir::Kernel*>& kernels,
                 analysis::DiagnosticEngine& diags);

}  // namespace clflow::srclint
