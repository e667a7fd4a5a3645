// Structured diagnostics for the static-analysis layer.
//
// A Diagnostic carries a stable CLF code, a severity, a location inside
// the compiled design (kernel / loop / buffer -- whichever apply), a
// human message, and a fix-it hint naming the schedule primitive or
// recipe knob that removes the problem. The DiagnosticEngine collects
// them, applies per-code severity overrides (a Deployment option: demote
// a blocking error to a warning for bring-up, or promote a perf lint to
// an error for CI), renders table/JSON output, and counts every report in
// the obs metrics registry (`analysis.diag{code=...,severity=...}`).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/codes.hpp"

namespace clflow {
class Table;
}

namespace clflow::obs {
class Registry;
class Tracer;
}

namespace clflow::analysis {

/// Where in the design a diagnostic points. All fields optional; empty
/// fields are omitted from rendered output.
struct DiagLocation {
  std::string kernel;
  std::string loop;    ///< loop variable name
  std::string buffer;  ///< buffer or channel name

  [[nodiscard]] std::string ToString() const;
};

struct Diagnostic {
  std::string code;  ///< "CLFxxx"
  Severity severity = Severity::kError;
  DiagLocation location;
  std::string message;
  std::string fixit;

  /// Fills severity/fixit defaults from `info` and returns the result.
  [[nodiscard]] static Diagnostic Make(const CodeInfo& info,
                                       DiagLocation location,
                                       std::string message,
                                       std::string fixit = "");
};

class DiagnosticEngine {
 public:
  /// Reports are counted on `registry` when given, else on
  /// obs::Registry::Current().
  explicit DiagnosticEngine(obs::Registry* registry = nullptr)
      : registry_(registry) {}

  /// Forces every future report of `code` to `severity` (the Deployment
  /// lint demote/promote option).
  void OverrideSeverity(const std::string& code, Severity severity);

  /// Records a diagnostic (after applying any severity override) and
  /// bumps its per-code counter.
  void Report(Diagnostic d);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  [[nodiscard]] int error_count() const { return errors_; }
  [[nodiscard]] int warning_count() const { return warnings_; }
  [[nodiscard]] bool HasErrors() const { return errors_ > 0; }

  /// All diagnostics carrying `code`.
  [[nodiscard]] std::vector<Diagnostic> ByCode(std::string_view code) const;

  /// Code | severity | location | message | fix-it rows.
  [[nodiscard]] Table SummaryTable() const;
  /// {"diagnostics":[{code,severity,kernel,loop,buffer,message,fixit}...],
  ///  "errors":N,"warnings":N}
  [[nodiscard]] std::string ToJson() const;
  /// One "CLFxxx error: message [loc] (fix: ...)" line per diagnostic.
  [[nodiscard]] std::string ToText() const;

  /// Mirrors every diagnostic into `tracer` as an instant span
  /// (category "diag") so lint results land in the Chrome trace next to
  /// the compile phases.
  void MirrorToTrace(obs::Tracer& tracer) const;

 private:
  obs::Registry* registry_ = nullptr;
  std::map<std::string, Severity> overrides_;
  std::vector<Diagnostic> diagnostics_;
  int errors_ = 0;
  int warnings_ = 0;
};

}  // namespace clflow::analysis
