#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace delta {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double logsum = 0.0;
  for (double x : xs) {
    assert(x > 0.0 && "geomean requires positive inputs");
    logsum += std::log(x);
  }
  return std::exp(logsum / static_cast<double>(xs.size()));
}

std::string pad(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

std::string fmt(double x, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, x);
  return buf;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::str() const {
  std::vector<std::size_t> w(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) w[c] = std::max(w[c], r[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << pad(r[c], w[c]);
      if (c + 1 != r.size()) os << "  ";
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < w.size(); ++c) total += w[c] + (c + 1 != w.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

}  // namespace delta
