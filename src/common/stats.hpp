// Small statistics toolkit: means, geometric means and fixed-width text
// tables used by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace delta {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Geometric mean; every element must be > 0.  Returns 0 for an empty span.
double geomean(std::span<const double> xs);

/// Right-pads/truncates `s` to exactly `width` characters.
std::string pad(const std::string& s, std::size_t width);

/// Formats `x` with `prec` digits after the decimal point.
std::string fmt(double x, int prec = 3);

/// Minimal fixed-width table printer for bench harness output.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  /// Render the table (header, rule, rows) to a string.
  std::string str() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace delta
