#include "lint/ir.hpp"

#include <cctype>

namespace delta::lint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::string scrub(std::string_view text) {
  std::string out(text);
  enum class St { kCode, kLine, kBlock, kStr, kChar };
  St st = St::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(out[i - 1]))) {
          // Raw string: R"delim( ... )delim" — blank the whole literal.
          std::size_t p = i + 2;
          std::string delim;
          while (p < out.size() && out[p] != '(') delim += out[p++];
          const std::string close = ")" + delim + "\"";
          std::size_t end = out.find(close, p);
          end = end == std::string::npos ? out.size() : end + close.size();
          for (std::size_t j = i; j < end; ++j)
            if (out[j] != '\n') out[j] = ' ';
          i = end - 1;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') st = St::kCode;
        else out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
      case St::kChar: {
        const char quote = st == St::kStr ? '"' : '\'';
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') out[++i] = ' ';
        } else if (c == quote) {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool suppressed(std::string_view raw_line, std::string_view rule) {
  const std::size_t mark = raw_line.find("delta-lint:");
  if (mark == std::string_view::npos) return false;
  const std::size_t allow = raw_line.find("allow(", mark);
  if (allow == std::string_view::npos) return false;
  const std::size_t close = raw_line.find(')', allow);
  if (close == std::string_view::npos) return false;
  const std::string_view list = raw_line.substr(allow + 6, close - allow - 6);
  // Comma-separated rule list: allow(naked-new, unordered-iter).
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    std::string_view item = list.substr(start, end - start);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (item == rule) return true;
    start = end + 1;
  }
  return false;
}

std::vector<IncludeDirective> parse_includes(std::string_view text) {
  std::vector<IncludeDirective> out;
  int line = 0;
  for (std::string_view l : split_lines(text)) {
    ++line;
    std::size_t p = 0;
    while (p < l.size() && (l[p] == ' ' || l[p] == '\t')) ++p;
    if (p >= l.size() || l[p] != '#') continue;
    ++p;
    while (p < l.size() && (l[p] == ' ' || l[p] == '\t')) ++p;
    if (l.compare(p, 7, "include") != 0) continue;
    p += 7;
    while (p < l.size() && (l[p] == ' ' || l[p] == '\t')) ++p;
    if (p >= l.size() || l[p] != '"') continue;
    const std::size_t close = l.find('"', p + 1);
    if (close == std::string_view::npos) continue;
    out.push_back(IncludeDirective{std::string(l.substr(p + 1, close - p - 1)), line});
  }
  return out;
}

}  // namespace delta::lint
