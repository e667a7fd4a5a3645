#include "analysis/diag.hpp"

#include <sstream>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace clflow::analysis {

std::string DiagLocation::ToString() const {
  std::string out;
  auto append = [&](const char* what, const std::string& name) {
    if (name.empty()) return;
    if (!out.empty()) out += " / ";
    out += what;
    out += ' ';
    out += name;
  };
  append("kernel", kernel);
  append("loop", loop);
  append("buffer", buffer);
  return out;
}

Diagnostic Diagnostic::Make(const CodeInfo& info, DiagLocation location,
                            std::string message, std::string fixit) {
  Diagnostic d;
  d.code = std::string(info.id);
  d.severity = info.default_severity;
  d.location = std::move(location);
  d.message = std::move(message);
  d.fixit = fixit.empty() ? std::string(info.default_fixit)
                          : std::move(fixit);
  return d;
}

void DiagnosticEngine::OverrideSeverity(const std::string& code,
                                        Severity severity) {
  overrides_[code] = severity;
}

void DiagnosticEngine::Report(Diagnostic d) {
  auto it = overrides_.find(d.code);
  if (it != overrides_.end()) d.severity = it->second;
  switch (d.severity) {
    case Severity::kError: ++errors_; break;
    case Severity::kWarning: ++warnings_; break;
    case Severity::kNote: break;
  }
  obs::Registry* reg = registry_ != nullptr ? registry_
                                            : obs::Registry::Current();
  reg->counter("analysis.diag",
               {{"code", d.code},
                {"severity", std::string(SeverityName(d.severity))}})
      .Add(1);
  diagnostics_.push_back(std::move(d));
}

std::vector<Diagnostic> DiagnosticEngine::ByCode(
    std::string_view code) const {
  std::vector<Diagnostic> out;
  for (const auto& d : diagnostics_) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

Table DiagnosticEngine::SummaryTable() const {
  Table table({"Code", "Severity", "Location", "Message", "Fix-it"});
  for (const auto& d : diagnostics_) {
    table.AddRow({d.code, std::string(SeverityName(d.severity)),
                  d.location.ToString(), d.message, d.fixit});
  }
  return table;
}

std::string DiagnosticEngine::ToJson() const {
  std::ostringstream os;
  os << "{\"diagnostics\":[";
  bool first = true;
  for (const auto& d : diagnostics_) {
    if (!first) os << ',';
    first = false;
    os << "{\"code\":\"" << obs::JsonEscape(d.code) << "\",\"severity\":\""
       << SeverityName(d.severity) << '"';
    if (!d.location.kernel.empty()) {
      os << ",\"kernel\":\"" << obs::JsonEscape(d.location.kernel) << '"';
    }
    if (!d.location.loop.empty()) {
      os << ",\"loop\":\"" << obs::JsonEscape(d.location.loop) << '"';
    }
    if (!d.location.buffer.empty()) {
      os << ",\"buffer\":\"" << obs::JsonEscape(d.location.buffer) << '"';
    }
    os << ",\"message\":\"" << obs::JsonEscape(d.message)
       << "\",\"fixit\":\"" << obs::JsonEscape(d.fixit) << "\"}";
  }
  os << "],\"errors\":" << errors_ << ",\"warnings\":" << warnings_ << '}';
  return os.str();
}

std::string DiagnosticEngine::ToText() const {
  std::ostringstream os;
  for (const auto& d : diagnostics_) {
    os << d.code << ' ' << SeverityName(d.severity) << ": " << d.message;
    const std::string loc = d.location.ToString();
    if (!loc.empty()) os << " [" << loc << ']';
    if (!d.fixit.empty()) os << " (fix: " << d.fixit << ')';
    os << '\n';
  }
  return os.str();
}

void DiagnosticEngine::MirrorToTrace(obs::Tracer& tracer) const {
  for (const auto& d : diagnostics_) {
    // A create-and-destroy ScopedSpan records an (approximately) instant
    // event on the compile track.
    obs::ScopedSpan span(&tracer, d.code, "diag");
    span.Arg("severity", std::string(SeverityName(d.severity)));
    span.Arg("message", d.message);
    const std::string loc = d.location.ToString();
    if (!loc.empty()) span.Arg("location", loc);
    if (!d.fixit.empty()) span.Arg("fixit", d.fixit);
  }
}

}  // namespace clflow::analysis
