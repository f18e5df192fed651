#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "lint/ir.hpp"
#include "lint/layering.hpp"

namespace delta::lint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when text[pos..pos+word) is `word` delimited by non-identifier
/// characters on both sides.
bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < text.size() && ident_char(text[end])) return false;
  return true;
}

/// Finds the next whole-word occurrence of `word` at or after `from`.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from = 0) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

/// Skips a balanced `<...>` template argument list starting at the '<' at
/// `pos`; returns the index one past the matching '>'.  npos if unbalanced.
std::size_t skip_template_args(std::string_view text, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    else if (text[i] == '>' && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

/// Names declared with an unordered container type anywhere in the file:
/// `std::unordered_map<K, V> name` (members, locals, parameters).
std::set<std::string, std::less<>> unordered_names(std::string_view code) {
  std::set<std::string, std::less<>> names;
  for (const char* type : {"unordered_map", "unordered_set", "unordered_multimap",
                           "unordered_multiset"}) {
    for (std::size_t pos = find_word(code, type); pos != std::string_view::npos;
         pos = find_word(code, type, pos + 1)) {
      std::size_t p = pos + std::string_view(type).size();
      if (p >= code.size() || code[p] != '<') continue;
      p = skip_template_args(code, p);
      if (p == std::string_view::npos) continue;
      while (p < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[p])) != 0 ||
              code[p] == '&' || code[p] == '*'))
        ++p;
      std::size_t q = p;
      while (q < code.size() && ident_char(code[q])) ++q;
      if (q > p) names.emplace(code.substr(p, q - p));
    }
  }
  return names;
}

/// Range expression of a single-line range-for, or empty: text between the
/// loop's single ':' (not part of '::') and the closing ')'.
std::string_view range_for_expr(std::string_view line) {
  const std::size_t f = find_word(line, "for");
  if (f == std::string_view::npos) return {};
  const std::size_t open = line.find('(', f);
  if (open == std::string_view::npos) return {};
  int depth = 0;
  std::size_t colon = std::string_view::npos;
  for (std::size_t i = open; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(') ++depth;
    else if (c == ')') {
      if (--depth == 0)
        return colon == std::string_view::npos
                   ? std::string_view{}
                   : line.substr(colon + 1, i - colon - 1);
    } else if (c == ':' && depth == 1) {
      const bool dbl = (i > 0 && line[i - 1] == ':') ||
                       (i + 1 < line.size() && line[i + 1] == ':');
      if (!dbl) colon = i;
    }
  }
  return {};
}

/// First template argument of `map<`/`set<` at `pos` (pos at the word).
std::string_view first_template_arg(std::string_view code, std::size_t open) {
  int depth = 0;
  const std::size_t start = open + 1;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') ++depth;
    else if (c == '>') {
      if (--depth == 0) return code.substr(start, i - start);
    } else if (c == ',' && depth == 1) {
      return code.substr(start, i - start);
    }
  }
  return {};
}

class Linter {
 public:
  Linter(const FileInfo& info, std::string_view text)
      : info_(info),
        raw_lines_(split_lines(text)),
        code_(scrub(text)),
        code_lines_(split_lines(code_)) {}

  std::vector<Finding> run() {
    check_unordered_iteration();
    check_nondeterminism_sources();
    check_raw_intrinsics();
    check_raw_affinity();
    check_pointer_keys();
    check_naked_new();
    check_own_header_first();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(findings_);
  }

 private:
  void add(int line_idx, std::string rule, std::string detail) {
    const std::string_view raw =
        line_idx < static_cast<int>(raw_lines_.size()) ? raw_lines_[line_idx]
                                                       : std::string_view{};
    if (suppressed(raw, rule)) return;
    findings_.push_back(Finding{info_.path_label, line_idx + 1,
                                std::move(rule), std::move(detail), {}});
  }

  void check_unordered_iteration() {
    const auto names = unordered_names(code_);
    if (names.empty()) return;
    for (std::size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      // Range-for over an unordered container.
      const std::string_view range = range_for_expr(line);
      if (!range.empty()) {
        for (const std::string& n : names) {
          if (find_word(range, n) != std::string_view::npos) {
            add(static_cast<int>(li), "unordered-iter",
                "range-for over unordered container '" + n +
                    "'; iteration order is not deterministic — use std::map "
                    "or a sorted vector");
            break;
          }
        }
      }
      // Explicit iterator walks start at begin(); comparing against end()
      // (the find-sentinel idiom) never observes the order and stays legal.
      for (const std::string& n : names) {
        for (std::size_t pos = find_word(line, n); pos != std::string_view::npos;
             pos = find_word(line, n, pos + 1)) {
          const std::size_t after = pos + n.size();
          for (const char* it : {".begin(", ".cbegin(", ".rbegin("}) {
            if (line.compare(after, std::string_view(it).size(), it) == 0) {
              add(static_cast<int>(li), "unordered-iter",
                  "iterator over unordered container '" + n +
                      "'; iteration order is not deterministic — use std::map "
                      "or a sorted vector");
              pos = line.size();
              break;
            }
          }
          if (pos >= line.size()) break;
        }
      }
    }
  }

  void check_nondeterminism_sources() {
    struct Pattern {
      const char* word;
      bool needs_call;  ///< Only flag when followed by '('.
      const char* what;
      /// Path-label substring under which the word is legal (nullptr =
      /// banned everywhere).  The only current carve-out is the profiling
      /// subsystem: wall-clock reads are its whole purpose, and they stay
      /// observation-only there (docs/observability.md).
      const char* allow_dir = nullptr;
    };
    static constexpr Pattern kPatterns[] = {
        {"rand", true, "rand() is seed-global and libc-dependent"},
        {"srand", true, "srand() seeds global libc state"},
        {"random_device", false, "std::random_device is nondeterministic"},
        {"system_clock", false, "wall-clock time varies across runs"},
        {"time", true, "time() reads the wall clock"},
        {"clock", true, "clock() reads process time"},
        {"steady_clock", false,
         "wall-clock reads outside the profiling subsystem; instrument "
         "through obs/prof/prof.hpp instead", "src/obs/prof"},
        {"high_resolution_clock", false,
         "wall-clock reads outside the profiling subsystem; instrument "
         "through obs/prof/prof.hpp instead", "src/obs/prof"},
    };
    for (std::size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      for (const Pattern& p : kPatterns) {
        if (p.allow_dir != nullptr &&
            info_.path_label.find(p.allow_dir) != std::string::npos)
          continue;
        for (std::size_t pos = find_word(line, p.word);
             pos != std::string_view::npos;
             pos = find_word(line, p.word, pos + 1)) {
          if (p.needs_call) {
            std::size_t after = pos + std::string_view(p.word).size();
            while (after < line.size() && line[after] == ' ') ++after;
            if (after >= line.size() || line[after] != '(') continue;
          }
          add(static_cast<int>(li), "nondet-source",
              std::string(p.word) + ": " + p.what +
                  "; route randomness through common/rng.hpp");
          break;
        }
      }
    }
  }

  /// Raw SIMD/prefetch intrinsics outside the dispatch layer.  Every
  /// intrinsic must live in src/common/simd.hpp so the scalar fallback
  /// (-DDELTA_NO_SIMD) keeps covering the whole codebase and per-ISA code
  /// never leaks into the engine (docs/performance.md).
  void check_raw_intrinsics() {
    if (info_.path_label.find("src/common/simd.hpp") != std::string::npos)
      return;
    static constexpr const char* kHeaders[] = {
        "emmintrin.h", "xmmintrin.h", "pmmintrin.h", "tmmintrin.h",
        "smmintrin.h", "nmmintrin.h", "wmmintrin.h", "immintrin.h",
        "x86intrin.h", "arm_neon.h",  "arm_sve.h",
    };
    const auto ident_char = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
             (c >= '0' && c <= '9') || c == '_';
    };
    for (std::size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      if (line.find("#include") != std::string_view::npos) {
        for (const char* h : kHeaders) {
          if (line.find(h) != std::string_view::npos) {
            add(static_cast<int>(li), "raw-intrinsic",
                std::string("intrinsic header <") + h +
                    "> outside src/common/simd.hpp; add the kernel to the "
                    "dispatch layer instead");
            break;
          }
        }
        continue;
      }
      // Identifiers starting with `_mm` (_mm_*, _mm256_*, _mm512_*) and
      // __builtin_prefetch.  NEON names are too generic to prefix-match;
      // the header ban above covers them.
      for (const char* prefix : {"_mm", "__builtin_prefetch"}) {
        const std::string_view pf(prefix);
        bool hit = false;
        for (std::size_t pos = line.find(pf); pos != std::string_view::npos;
             pos = line.find(pf, pos + 1)) {
          if (pos > 0 && ident_char(line[pos - 1])) continue;  // Mid-token.
          add(static_cast<int>(li), "raw-intrinsic",
              std::string(prefix) +
                  "* intrinsic outside src/common/simd.hpp; call the "
                  "simd::* dispatch kernels instead");
          hit = true;
          break;
        }
        if (hit) break;
      }
    }
  }

  /// Raw OS thread-affinity API anywhere under src/.  The simulator pins
  /// no thread: no measurement showed pinning paying off, and a pinned
  /// chip under a sweep stacked every chip's workers onto the same CPUs
  /// (docs/performance.md).
  void check_raw_affinity() {
    static constexpr const char* kWords[] = {
        "pthread_setaffinity_np", "pthread_getaffinity_np",
        "sched_setaffinity",      "sched_getaffinity",
        "cpu_set_t",              "sched_getcpu",
    };
    for (std::size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      if (line.find("#include") != std::string_view::npos) {
        if (line.find("sched.h") != std::string_view::npos) {
          add(static_cast<int>(li), "raw-affinity",
              "<sched.h>: the simulator pins no thread");
        }
        continue;
      }
      for (const char* word : kWords) {
        if (find_word(line, word) != std::string_view::npos) {
          add(static_cast<int>(li), "raw-affinity",
              std::string(word) + ": the simulator pins no thread");
          break;
        }
      }
    }
  }

  void check_pointer_keys() {
    for (std::size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      for (const char* type : {"map", "set", "multimap", "multiset"}) {
        for (std::size_t pos = find_word(line, type); pos != std::string_view::npos;
             pos = find_word(line, type, pos + 1)) {
          const std::size_t open = pos + std::string_view(type).size();
          if (open >= line.size() || line[open] != '<') continue;
          const std::string_view key = first_template_arg(line, open);
          if (key.find('*') != std::string_view::npos) {
            add(static_cast<int>(li), "ptr-key",
                "pointer-keyed ordered container: iteration order follows "
                "allocation addresses (ASLR), not program logic");
            break;
          }
        }
      }
    }
  }

  void check_naked_new() {
    for (std::size_t li = 0; li < code_lines_.size(); ++li) {
      const std::string_view line = code_lines_[li];
      if (find_word(line, "new") != std::string_view::npos) {
        add(static_cast<int>(li), "naked-new",
            "naked new: prefer values, containers or std::make_unique");
      }
      for (std::size_t pos = find_word(line, "delete");
           pos != std::string_view::npos;
           pos = find_word(line, "delete", pos + 1)) {
        // Permit `= delete;` (deleted functions) and operator delete.
        std::size_t before = pos;
        while (before > 0 && line[before - 1] == ' ') --before;
        const bool deleted_fn = before > 0 && line[before - 1] == '=';
        const bool op = before >= 8 && line.compare(before - 8, 8, "operator") == 0;
        if (deleted_fn || op) continue;
        add(static_cast<int>(li), "naked-new",
            "naked delete: ownership should live in a container or smart pointer");
        break;
      }
    }
  }

  void check_own_header_first() {
    if (info_.expected_header.empty()) return;
    const std::string want = "#include \"" + info_.expected_header + "\"";
    for (std::size_t li = 0; li < raw_lines_.size(); ++li) {
      std::string_view line = raw_lines_[li];
      while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
        line.remove_prefix(1);
      if (line.rfind("#include", 0) != 0) continue;
      if (line.rfind(want, 0) != 0)
        add(static_cast<int>(li), "own-header-first",
            "first include must be the file's own header \"" +
                info_.expected_header + "\" (proves it is self-contained)");
      return;  // Only the first include matters.
    }
  }

  const FileInfo& info_;
  std::vector<std::string_view> raw_lines_;
  std::string code_;
  std::vector<std::string_view> code_lines_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> lint_text(const FileInfo& info, std::string_view text) {
  return Linter(info, text).run();
}

namespace {

/// True when the walk must not descend into `dir`: build trees (any
/// directory whose name starts with "build") and dot-directories
/// (.git, .cache, ...) contain generated or foreign sources.
bool skip_dir(const std::filesystem::path& dir) {
  const std::string name = dir.filename().string();
  return name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.');
}

bool rule_selected(const TreeOptions& opts, std::string_view rule) {
  if (opts.rules.empty()) return true;
  return std::find(opts.rules.begin(), opts.rules.end(), rule) !=
         opts.rules.end();
}

}  // namespace

std::vector<Finding> lint_tree(const std::filesystem::path& root) {
  return lint_tree(root, TreeOptions{});
}

std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               const TreeOptions& opts) {
  namespace fs = std::filesystem;
  const bool want_lexical =
      std::any_of(kRules.begin(), kRules.begin() + kLexicalRules,
                  [&](std::string_view r) { return rule_selected(opts, r); });
  const bool want_layering = rule_selected(opts, "layering");
  const bool want_cycles = rule_selected(opts, "include-cycle");

  std::vector<fs::path> files;
  if (fs::exists(root)) {
    auto it = fs::recursive_directory_iterator(root);
    for (auto end = fs::end(it); it != end; ++it) {
      if (it->is_directory() && skip_dir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        files.push_back(it->path());
    }
  }
  // Deterministic walk order regardless of how the filesystem enumerates
  // entries: sort on the portable generic form.
  std::sort(files.begin(), files.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.generic_string() < b.generic_string();
            });

  std::vector<Finding> all;
  std::vector<FileInclude> includes;
  // Labels are relative to the root's parent so messages read "src/...".
  // Resolve through lexically_normal+absolute first: a bare relative root
  // ("src") has no parent of its own, and the path-prefix carve-outs
  // (e.g. the prof-subsystem clock allowance keyed on "src/obs/prof")
  // must see the same labels no matter how the root was spelled.
  fs::path norm = fs::absolute(root).lexically_normal();
  if (norm.filename().empty()) norm = norm.parent_path();  // trailing '/'
  const fs::path base = norm.has_parent_path() ? norm.parent_path() : norm;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    FileInfo info;
    info.path_label = fs::relative(file, base).generic_string();
    if (file.extension() == ".cpp" || file.extension() == ".cc") {
      fs::path header = file;
      header.replace_extension(".hpp");
      if (fs::exists(header))
        info.expected_header = fs::relative(header, root).generic_string();
    }
    if (want_lexical)
      for (Finding& f : lint_text(info, text)) all.push_back(std::move(f));
    if (want_layering || want_cycles)
      for (const IncludeDirective& inc : parse_includes(text))
        includes.push_back(FileInclude{info.path_label, inc.line, inc.path});
  }
  if (want_layering)
    for (Finding& f : check_layering(default_layering(), includes))
      all.push_back(std::move(f));
  if (want_cycles)
    for (Finding& f : check_include_cycles(includes))
      all.push_back(std::move(f));

  if (!opts.rules.empty()) {
    all.erase(std::remove_if(all.begin(), all.end(),
                             [&](const Finding& f) {
                               return !rule_selected(opts, f.rule);
                             }),
              all.end());
  }
  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return all;
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " + f.detail;
}

}  // namespace delta::lint
