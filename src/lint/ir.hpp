// Text front of the lint rules.  Deliberately *not* a C++ parser: no
// preprocessing, no tokens, no type information.  It recovers exactly what
// the rules need from one file's text —
//
//   * a scrubbed view of the source (comments and literal bodies blanked,
//     offsets preserved) for the lexical rules in lint.cpp;
//   * the `// delta-lint: allow(...)` suppression grammar;
//   * the file's `#include "..."` directives for the repo-wide include
//     graph (layering.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace delta::lint {

// ---- Shared text utilities (also used by the lexical rules). ----

/// Replaces comments and string/character literal bodies with spaces,
/// preserving length and line structure so offsets keep mapping to the
/// original text.  Handles //, /*...*/, "...", '...' and R"delim(...)delim".
std::string scrub(std::string_view text);

/// Splits on '\n'; the trailing segment is included even when empty.
std::vector<std::string_view> split_lines(std::string_view text);

/// True when `raw_line` carries `// delta-lint: allow(<rule>[, <rule>...])`
/// naming `rule`.
bool suppressed(std::string_view raw_line, std::string_view rule);

// ---- Includes. ----

struct IncludeDirective {
  std::string path;  ///< The quoted include path, verbatim.
  int line = 0;
};

/// All `#include "..."` directives (angle-bracket system includes are not
/// part of the project layering and are skipped).
std::vector<IncludeDirective> parse_includes(std::string_view text);

}  // namespace delta::lint
