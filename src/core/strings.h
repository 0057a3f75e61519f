#pragma once
#include <string>
#include <vector>

namespace adpa {

/// Formats `value` with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision = 4);

/// "mean±std" with the library's conventional 1-decimal accuracy format,
/// matching the paper's tables (values in percent).
std::string FormatMeanStd(double mean, double stddev, int precision = 1);

/// Left-pads or right-pads `text` with spaces to `width` characters.
std::string PadLeft(const std::string& text, int width);
std::string PadRight(const std::string& text, int width);

/// Minimal fixed-width ASCII table printer used by the bench binaries so
/// every experiment emits the same row/column layout the paper reports.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Renders the table (header, rule, rows) to a string.
  std::string ToString() const;

  /// Convenience: renders and writes to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace adpa

