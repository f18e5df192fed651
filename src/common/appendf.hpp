// printf onto the end of a std::string, sized exactly: the exporters,
// reports and bench renderers build their text with it, so no line is ever
// cut at a fixed buffer length.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace delta {

/// Appends the printf-formatted text to `out` (the compiler checks the
/// arguments against `format`).  An encoding error appends nothing.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out, const char* format,
                                                  ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (n >= 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, format, again);
    out.pop_back();  // The terminator vsnprintf wrote.
  }
  va_end(again);
}

}  // namespace delta
