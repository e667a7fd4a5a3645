#include "srclint/srclint.hpp"

#include "srclint/analyses.hpp"
#include "srclint/parser.hpp"

namespace clflow::srclint {

std::string_view ExpectedTypeName(ir::ScalarType t) {
  switch (t) {
    case ir::ScalarType::kFloat32: return "float";
    case ir::ScalarType::kInt32: return "int";
  }
  return "?";
}

std::optional<SrcProgram> LintSource(const std::string& source,
                                     analysis::DiagnosticEngine& diags) {
  SrcProgram program;
  try {
    program = ParseProgram(source);
  } catch (const SrcParseError& e) {
    diags.Report(analysis::Diagnostic::Make(
        analysis::kSrcParseFailure, analysis::DiagLocation{},
        std::string(e.what())));
    return std::nullopt;
  }
  for (const auto& kernel : program.kernels) {
    LintKernelSource(kernel, diags);
  }
  return program;
}

bool LintProgram(const SrcProgram& program,
                 const std::vector<const ir::Kernel*>& kernels,
                 analysis::DiagnosticEngine& diags) {
  const int errors_before = diags.error_count();
  for (const auto& kernel : program.kernels) LintKernelSource(kernel, diags);
  ValidateAgainstPlan(program, kernels, diags);
  return diags.error_count() == errors_before;
}

bool LintProgram(const std::string& source,
                 const std::vector<const ir::Kernel*>& kernels,
                 analysis::DiagnosticEngine& diags) {
  const int errors_before = diags.error_count();
  const auto program = LintSource(source, diags);
  if (program) {
    ValidateAgainstPlan(*program, kernels, diags);
  }
  return diags.error_count() == errors_before;
}

}  // namespace clflow::srclint
