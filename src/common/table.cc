#include "src/common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace skywalker {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> row) {
  row.resize(headers_.size());
  rows_.push_back(std::move(row));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::ToAscii() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };
  auto emit_sep = [&]() {
    os << "+";
    for (size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "+";
    }
    os << "\n";
  };
  emit_sep();
  emit_row(headers_);
  emit_sep();
  for (const auto& row : rows_) {
    emit_row(row);
  }
  emit_sep();
  return os.str();
}

}  // namespace skywalker
