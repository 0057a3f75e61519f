#include "src/core/strings.h"

#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/core/logging.h"

namespace adpa {

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string FormatMeanStd(double mean, double stddev, int precision) {
  return FormatDouble(mean, precision) + "±" + FormatDouble(stddev, precision);
}

namespace {

// Display width in terminal columns. The tables use "±" (2 bytes in UTF-8,
// 1 column), so byte length over-pads; count UTF-8 code points instead.
int DisplayWidth(const std::string& text) {
  int width = 0;
  for (unsigned char c : text) {
    if ((c & 0xC0) != 0x80) ++width;  // count non-continuation bytes
  }
  return width;
}

}  // namespace

std::string PadLeft(const std::string& text, int width) {
  const int deficit = width - DisplayWidth(text);
  return deficit > 0 ? std::string(deficit, ' ') + text : text;
}

std::string PadRight(const std::string& text, int width) {
  const int deficit = width - DisplayWidth(text);
  return deficit > 0 ? text + std::string(deficit, ' ') : text;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  ADPA_CHECK_EQ(row.size(), headers_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<int> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = DisplayWidth(headers_[c]);
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], DisplayWidth(row[c]));
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " ");
      // First column (names) left-aligned, numeric columns right-aligned.
      out << (c == 0 ? PadRight(row[c], widths[c]) : PadLeft(row[c], widths[c]));
      out << " |";
    }
    out << "\n";
  };
  emit_row(headers_);
  for (size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

// TablePrinter is the one sanctioned stdout surface in the library: the
// bench/example binaries print result tables through it.
void TablePrinter::Print() const {
  std::cout << ToString() << std::flush;  // lint:allow(no-direct-io)
}

}  // namespace adpa
