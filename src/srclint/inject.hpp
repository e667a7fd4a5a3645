// Deterministic defect injection for the CLF8xx family.
//
// Every srclint code needs a repro command (the registry fix-its name
// them); these helpers are the single implementation behind
// `flow_inspector lint --src --inject MODE`, the Compile-gate demo hook
// (AnalysisOptions::srclint_inject), and the injected-defect tests.
//
// Corruption modes rewrite a real emission so translation validation
// fails:   parse -> CLF800   sig -> CLF801   chan-endpoint -> CLF802
//          unroll -> CLF803  chan-type -> CLF804  restrict -> CLF807
// Snippet modes return a self-contained defective kernel for the
// plan-free analyses: loop-dep -> CLF805  oob -> CLF806
//          dead-store -> CLF808  uninit -> CLF809
#pragma once

#include <optional>
#include <string>

namespace clflow::srclint {

/// Applies a corruption mode to emitted source. nullopt when the mode is
/// unknown or its anchor text is absent (e.g. chan-type on a design
/// without channels).
[[nodiscard]] std::optional<std::string> InjectDefect(const std::string& mode,
                                                      std::string source);

/// The built-in defective kernel for a snippet mode; nullptr for
/// non-snippet modes.
[[nodiscard]] const char* SyntheticDefectSnippet(const std::string& mode);

}  // namespace clflow::srclint
