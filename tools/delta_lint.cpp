// delta_lint CLI: runs the project determinism/hygiene rules plus the
// semantic layer (layering, include-cycle — src/lint) over
// one or more source trees and prints one `file:line: rule: detail` per
// violation.  Exit status: 0 clean, 1 violations, 2 usage error (including
// an unknown rule name or a source path that is not a directory).
//
// Flags:
//   --rule a,b,...      run only the named rules (default: all)
//   --json OUT|-        machine-readable findings ({"version":1,...})
//   --fix-suggestions   print the exact suppression/annotation line per
//                       finding, when one applies
//
// Registered as the `delta_lint` ctest (label `lint`) and, for the
// semantic rules, as `delta_lint_semantic` (label `lint-semantic`), so the
// plain tier-1 `ctest` run fails on any violation.  See
// docs/static-analysis.md for the rule catalogue and annotation grammar.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json(const std::vector<delta::lint::Finding>& findings) {
  std::string out = "{\"version\":1,\"findings\":[";
  bool first = true;
  for (const auto& f : findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"file\":\"" + json_escape(f.file) +
           "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"" +
           json_escape(f.rule) + "\",\"detail\":\"" + json_escape(f.detail) +
           "\",\"suggestion\":\"" + json_escape(f.suggestion) + "\"}";
  }
  out += "],\"count\":" + std::to_string(findings.size()) + "}\n";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: delta_lint [--rule a,b,...] [--json OUT|-] "
               "[--fix-suggestions] <source-dir>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  delta::lint::TreeOptions opts;
  const char* json_path = nullptr;
  bool fix_suggestions = false;
  std::vector<const char*> roots;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--rule") == 0) {
      if (++i >= argc) return usage();
      for (std::string& r : split_csv(argv[i]))
        opts.rules.push_back(std::move(r));
    } else if (std::strcmp(arg, "--json") == 0) {
      if (++i >= argc) return usage();
      json_path = argv[i];
    } else if (std::strcmp(arg, "--fix-suggestions") == 0) {
      fix_suggestions = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "delta_lint: unknown flag '%s'\n", arg);
      return usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage();
  // A misspelt rule or source path would otherwise lint nothing and report
  // clean, silently disabling the gate that runs it.
  for (const std::string& r : opts.rules) {
    if (std::find(delta::lint::kRules.begin(), delta::lint::kRules.end(), r) ==
        delta::lint::kRules.end()) {
      std::fprintf(stderr, "delta_lint: unknown rule '%s'\n", r.c_str());
      return 2;
    }
  }
  for (const char* root : roots) {
    std::error_code ec;
    if (!std::filesystem::is_directory(root, ec)) {
      std::fprintf(stderr, "delta_lint: not a directory '%s'\n", root);
      return 2;
    }
  }

  std::vector<delta::lint::Finding> findings;
  for (const char* root : roots)
    for (auto& f : delta::lint::lint_tree(root, opts))
      findings.push_back(std::move(f));

  if (json_path != nullptr) {
    const std::string json = to_json(findings);
    if (std::strcmp(json_path, "-") == 0) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "delta_lint: cannot write '%s'\n", json_path);
        return 2;
      }
      out << json;
    }
  }

  for (const auto& f : findings) {
    std::fprintf(stderr, "%s\n", delta::lint::format(f).c_str());
    if (fix_suggestions && !f.suggestion.empty())
      std::fprintf(stderr, "  fix: %s\n", f.suggestion.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "delta_lint: %zu violation(s)\n", findings.size());
    return 1;
  }
  std::printf("delta_lint: clean\n");
  return 0;
}
