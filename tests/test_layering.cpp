// Unit tests for the layering lint (src/lint/layering.hpp): module mapping,
// declared-DAG enforcement over fabricated include edges, self-check of the
// config for cycles, and file-level include-cycle detection.
#include "lint/layering.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "lint/lint.hpp"

namespace delta::lint {
namespace {

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(Layering, ModuleOfStripsSrcPrefix) {
  EXPECT_EQ(module_of("src/sim/chip.cpp"), "sim");
  EXPECT_EQ(module_of("sim/chip.hpp"), "sim");
  EXPECT_EQ(module_of("src/core/wp/unit.hpp"), "core");
  EXPECT_EQ(module_of("lonefile.cpp"), "");
}

TEST(Layering, DeclaredEdgeIsAllowed) {
  const std::vector<FileInclude> edges = {
      {"src/sim/chip.cpp", 3, "core/cbt.hpp"},
      {"src/core/cbt.cpp", 1, "core/cbt.hpp"},  // self-include: always legal
      {"src/core/cbt.cpp", 2, "common/types.hpp"},
  };
  EXPECT_TRUE(check_layering(default_layering(), edges).empty());
}

TEST(Layering, UndeclaredEdgeIsFlaggedWithAllowedList) {
  // common is the bottom layer: it may not include sim.
  const std::vector<FileInclude> edges = {
      {"src/common/types.cpp", 7, "sim/chip.hpp"},
  };
  const auto fs = check_layering(default_layering(), edges);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "layering");
  EXPECT_EQ(fs[0].file, "src/common/types.cpp");
  EXPECT_EQ(fs[0].line, 7);
  EXPECT_NE(fs[0].detail.find("'common' may not include"), std::string::npos);
  // No waiver exists for a layering break: the advice is a code change.
  EXPECT_NE(fs[0].detail.find("move the code below the layer boundary"),
            std::string::npos);
  EXPECT_TRUE(fs[0].suggestion.empty());
}

TEST(Layering, FilesOutsideDeclaredModulesAreIgnored) {
  const std::vector<FileInclude> edges = {
      {"tools/delta_lint.cpp", 4, "sim/chip.hpp"},
      {"src/sim/chip.cpp", 2, "vendor/thing.hpp"},  // unknown target module
  };
  EXPECT_TRUE(check_layering(default_layering(), edges).empty());
}

TEST(Layering, CyclicConfigIsItselfAFinding) {
  // A rule set with a cycle enforces nothing — the checker must refuse it
  // rather than silently pass the tree.
  const LayeringConfig cyclic = {
      {"a", {"b"}},
      {"b", {"c"}},
      {"c", {"a"}},
  };
  const auto fs = check_layering(cyclic, {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, "<layering-config>");
  EXPECT_NE(fs[0].detail.find("not a DAG"), std::string::npos);
  EXPECT_NE(fs[0].detail.find("->"), std::string::npos);
}

TEST(Layering, DefaultConfigIsADag) {
  // Guards default_layering() itself: adding a cycle by mistake must fail
  // here, not silently disable enforcement.
  EXPECT_TRUE(check_layering(default_layering(), {}).empty());
}

TEST(Layering, IncludeCycleIsDetectedOnce) {
  // Fabricated three-file cycle plus an acyclic bystander; the cycle is
  // reported exactly once no matter how many roots reach it.
  const std::vector<FileInclude> edges = {
      {"src/a/x.hpp", 1, "a/y.hpp"},
      {"src/a/y.hpp", 1, "a/z.hpp"},
      {"src/a/z.hpp", 1, "a/x.hpp"},
      {"src/a/leaf.hpp", 1, "a/x.hpp"},
  };
  const auto fs = check_include_cycles(edges);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "include-cycle");
  EXPECT_NE(fs[0].detail.find("src/a/x.hpp -> src/a/y.hpp -> src/a/z.hpp -> "
                              "src/a/x.hpp"),
            std::string::npos);
}

TEST(Layering, AcyclicIncludesAreClean) {
  const std::vector<FileInclude> edges = {
      {"src/a/x.hpp", 1, "a/y.hpp"},
      {"src/a/y.hpp", 1, "a/z.hpp"},
      {"src/b/w.hpp", 1, "a/x.hpp"},
  };
  EXPECT_TRUE(check_include_cycles(edges).empty());
}

TEST(Layering, UnresolvedTargetsDoNotCreateEdges) {
  // <system> and external includes never resolve to scanned files; a
  // dangling quoted include is simply not part of the graph.
  const std::vector<FileInclude> edges = {
      {"src/a/x.hpp", 1, "nonexistent/far.hpp"},
  };
  EXPECT_TRUE(check_include_cycles(edges).empty());
}

TEST(Layering, SelfIncludeDoesNotCountAsCycle) {
  const std::vector<FileInclude> edges = {
      {"src/a/x.hpp", 1, "a/x.hpp"},
  };
  EXPECT_FALSE(has_rule(check_include_cycles(edges), "include-cycle"));
}

}  // namespace
}  // namespace delta::lint
