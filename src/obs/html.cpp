#include "obs/html.hpp"

namespace clflow::obs {

std::string HtmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

void WritePageHead(std::ostream& os, std::string_view title,
                   std::string_view extra_css) {
  os << "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
     << "<title>" << HtmlEscape(title) << "</title><style>"
     << "body{font-family:system-ui,sans-serif;margin:24px;color:#222}"
     << "h1{font-size:20px}h2{font-size:16px;margin-top:28px}"
     << "table{border-collapse:collapse;font-size:13px}"
     << "td,th{border:1px solid #ccc;padding:4px 8px;text-align:right}"
     << "td:first-child,th:first-child{text-align:left}"
     << ".legend span{display:inline-block;padding:2px 8px;margin-right:6px;"
     << "font-size:12px;color:#fff}"
     << "svg text{font-size:10px;font-family:monospace}" << extra_css
     << "</style></head><body>";
}

void WriteSvgOpen(std::ostream& os, int width, int height) {
  os << "<svg width=\"" << width << "\" height=\"" << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">";
}

void WriteLegend(std::ostream& os, const std::vector<LegendEntry>& entries) {
  os << "<p class=\"legend\">";
  for (const LegendEntry& e : entries) {
    os << "<span style=\"background:" << e.color << "\">"
       << HtmlEscape(e.label) << "</span>";
  }
  os << "</p>";
}

}  // namespace clflow::obs
