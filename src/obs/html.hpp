// Minimal HTML utilities shared by the self-contained report pages (the
// profiler's prof::ToHtml and the serving observatory's ToHtml).
//
// Both pages are single files with inline CSS and SVG and no external
// assets; this header holds the escaping, the common page head, the SVG
// canvas tag and the legend row so the two renderers cannot drift apart.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace clflow::obs {

/// Escapes `s` for HTML text and double-quoted attribute values:
/// & < > and ".
[[nodiscard]] std::string HtmlEscape(std::string_view s);

/// Writes the document prologue up to and including <body>: charset,
/// the escaped `title`, and a <style> block holding the shared report
/// stylesheet followed by the page's own `extra_css`.
void WritePageHead(std::ostream& os, std::string_view title,
                   std::string_view extra_css);

/// Opens an inline SVG canvas of `width` x `height` pixels.
void WriteSvgOpen(std::ostream& os, int width, int height);

/// One legend swatch: `label` on a `color` background.
struct LegendEntry {
  std::string_view color;
  std::string_view label;
};

/// Writes a legend row (the stylesheet's `.legend` spans), labels escaped.
void WriteLegend(std::ostream& os, const std::vector<LegendEntry>& entries);

}  // namespace clflow::obs
