#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace clflow {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  CLFLOW_CHECK_MSG(!header_.empty(), "table needs at least one column");
}

void Table::AddRow(std::vector<std::string> cells) {
  CLFLOW_CHECK_MSG(cells.size() == header_.size(),
                   "row arity does not match header");
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " ");
      os << row[c] << std::string(width[c] - row[c].size(), ' ') << " |";
    }
    os << '\n';
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|" : "") << std::string(width[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string Table::Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string Table::Speedup(double v, int digits) {
  return Num(v, digits) + "x";
}

std::string Table::Pct(double fraction, int digits) {
  return Num(fraction * 100.0, digits) + "%";
}

std::string Table::SignedPct(double fraction, int digits) {
  std::string out = fraction >= 0 ? "+" : "";
  out += Pct(fraction, digits);
  return out;
}

}  // namespace clflow
