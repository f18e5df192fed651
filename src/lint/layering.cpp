#include "lint/layering.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace delta::lint {
namespace {

/// DFS three-color cycle search over the declared config; returns the
/// cycle as "a -> b -> a" when one exists.
std::string config_cycle(const LayeringConfig& config) {
  std::map<std::string, const LayerRule*, std::less<>> by_name;
  for (const LayerRule& r : config) by_name.emplace(r.module, &r);
  std::map<std::string, int, std::less<>> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  std::string cycle;

  auto dfs = [&](auto&& self, const std::string& mod) -> bool {
    color[mod] = 1;
    path.push_back(mod);
    const auto it = by_name.find(mod);
    if (it != by_name.end()) {
      for (const std::string& dep : it->second->deps) {
        if (dep == mod || by_name.find(dep) == by_name.end()) continue;
        const int c = color[dep];
        if (c == 1) {
          const auto start = std::find(path.begin(), path.end(), dep);
          for (auto p = start; p != path.end(); ++p) cycle += *p + " -> ";
          cycle += dep;
          return true;
        }
        if (c == 0 && self(self, dep)) return true;
      }
    }
    color[mod] = 2;
    path.pop_back();
    return false;
  };
  for (const LayerRule& r : config) {
    if (color[r.module] == 0 && dfs(dfs, r.module)) return cycle;
  }
  return {};
}

}  // namespace

LayeringConfig default_layering() {
  return {
      {"common", {}},
      {"obs", {"common"}},
      {"mem", {"common"}},
      {"noc", {"common"}},
      {"umon", {"common"}},
      {"workload", {"common", "mem"}},
      {"core", {"common", "obs", "mem", "noc", "umon"}},
      {"alloc", {"common", "mem", "noc", "umon"}},
      {"sim",
       {"common", "obs", "mem", "noc", "umon", "workload", "core", "alloc"}},
      {"check",
       {"common", "obs", "mem", "noc", "umon", "workload", "core", "alloc",
        "sim"}},
      {"lint", {}},
  };
}

std::string module_of(std::string_view path) {
  if (path.rfind("src/", 0) == 0) path.remove_prefix(4);
  const std::size_t slash = path.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(path.substr(0, slash));
}

std::vector<Finding> check_layering(const LayeringConfig& config,
                                    const std::vector<FileInclude>& includes) {
  std::vector<Finding> findings;

  const std::string cycle = config_cycle(config);
  if (!cycle.empty()) {
    findings.push_back(Finding{
        "<layering-config>", 0, "layering",
        "declared layering graph is not a DAG: " + cycle +
            "; a cyclic rule set enforces nothing — fix default_layering()",
        {}});
    return findings;
  }

  std::map<std::string, const LayerRule*, std::less<>> by_name;
  for (const LayerRule& r : config) by_name.emplace(r.module, &r);

  for (const FileInclude& inc : includes) {
    const std::string from = module_of(inc.file);
    const std::string to = module_of(inc.target.find('/') != std::string::npos
                                         ? inc.target
                                         : inc.target + "/");
    const auto from_rule = by_name.find(from);
    if (from.empty() || from_rule == by_name.end()) continue;  // outside src/
    if (to.empty() || to == from) continue;                    // self-include
    if (by_name.find(to) == by_name.end()) continue;  // not a module path
    const std::vector<std::string>& allowed = from_rule->second->deps;
    if (std::find(allowed.begin(), allowed.end(), to) != allowed.end())
      continue;
    std::string allowed_list;
    for (const std::string& a : allowed)
      allowed_list += (allowed_list.empty() ? "" : ", ") + a;
    findings.push_back(Finding{
        inc.file, inc.line, "layering",
        "module '" + from + "' may not include '" + inc.target +
            "' (module '" + to + "'); declared dependencies of '" + from +
            "': [" + (allowed_list.empty() ? "none" : allowed_list) +
            "]; move the code below the layer boundary",
        {}});
  }
  return findings;
}

std::vector<Finding> check_include_cycles(
    const std::vector<FileInclude>& includes) {
  // Node set = scanned files; an edge exists when the include target
  // resolves to another scanned file (label match modulo the "src/" root).
  std::set<std::string> nodes;
  for (const FileInclude& inc : includes) nodes.insert(inc.file);
  auto resolve = [&](const std::string& target) -> std::string {
    if (nodes.count(target) != 0) return target;
    const std::string with_src = "src/" + target;
    if (nodes.count(with_src) != 0) return with_src;
    return {};
  };
  std::map<std::string, std::vector<std::pair<std::string, int>>, std::less<>>
      edges;  // file -> (resolved target, line)
  for (const FileInclude& inc : includes) {
    const std::string to = resolve(inc.target);
    if (!to.empty() && to != inc.file)
      edges[inc.file].emplace_back(to, inc.line);
  }

  std::vector<Finding> findings;
  std::map<std::string, int, std::less<>> color;
  std::vector<std::string> path;
  std::set<std::string> reported;  // canonical cycle keys, deduplicated

  auto dfs = [&](auto&& self, const std::string& file) -> void {
    color[file] = 1;
    path.push_back(file);
    for (const auto& [to, line] : edges[file]) {
      const int c = color[to];
      if (c == 2) continue;
      if (c == 1) {
        const auto start = std::find(path.begin(), path.end(), to);
        std::vector<std::string> cycle(start, path.end());
        // Canonical key: rotate so the lexicographically smallest node
        // leads, so the same cycle found from different roots dedups.
        const auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        std::string key;
        for (const std::string& n : cycle) key += n + " -> ";
        key += cycle.front();
        if (reported.insert(key).second) {
          findings.push_back(Finding{
              path.back(), line, "include-cycle",
              "include cycle: " + key +
                  "; break it with a forward declaration or by moving the "
                  "shared piece down a layer",
              {}});
        }
        continue;
      }
      self(self, to);
    }
    color[file] = 2;
    path.pop_back();
  };
  for (const std::string& n : nodes)
    if (color[n] == 0) dfs(dfs, n);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  return findings;
}

}  // namespace delta::lint
