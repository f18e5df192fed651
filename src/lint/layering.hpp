// Layering lint: the module dependency structure of src/ as a machine-
// checked fact.  Each first-level directory under src/ is a module; the
// declared DAG below says which modules each module may include.  The
// checker verifies (a) the declared graph itself is acyclic, (b) every
// `#include "..."` edge in the real tree is declared (self-includes are
// always legal), and (c) the real file-level include graph has no cycles.
//
// Declared architecture (arrows point at allowed dependencies):
//
//   lint                      (standalone: only itself)
//   check ─→ sim ─→ {alloc ─→ {core, workload}} ─→ {mem, noc, umon, obs}
//                                                        ─→ common
//
// concretely, bottom-up:
//
//   common                                    — types, rng, sync, parallel
//   obs, mem, noc, umon        → common       — obs is the instrumentation
//                                               substrate (recorder hooks
//                                               are embedded in core/sim,
//                                               so it sits low, with the
//                                               exporters; ISSUE 8's sketch
//                                               put it top-level, but the
//                                               embedded-recorder design
//                                               pins it here)
//   workload                   → common, mem
//   core                       → common, obs, mem, noc, umon
//   alloc                      → common, mem, noc, umon
//   sim                        → everything above it
//   check                      → everything, including sim
//   lint                       → (nothing)
//
// Violations are reported as rule `layering` (one per offending #include,
// file:line precision) and `include-cycle` (one per cycle).  Neither takes a
// waiver: the fix is a code change.
#pragma once

#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace delta::lint {

/// One module's declared allowed dependencies.
struct LayerRule {
  std::string module;
  std::vector<std::string> deps;
};

using LayeringConfig = std::vector<LayerRule>;

/// The repository's declared module DAG (header comment above).
LayeringConfig default_layering();

/// One `#include "..."` directive: `file` is the including file's path
/// label ("src/sim/chip.cpp"), `target` the quoted include path
/// ("core/cbt.hpp").
struct FileInclude {
  std::string file;
  int line = 0;
  std::string target;
};

/// Module of a path label: the component after a leading "src/" (or the
/// first component otherwise); empty when there is none.
std::string module_of(std::string_view path);

/// Checks every include edge against the declared DAG and the declared DAG
/// against itself (cycle in the *config* is reported too — a layering rule
/// that is not a DAG enforces nothing).  Rule: `layering`.
std::vector<Finding> check_layering(const LayeringConfig& config,
                                    const std::vector<FileInclude>& includes);

/// Detects cycles in the real file-level include graph (only edges whose
/// target resolves to another scanned file participate).  Rule:
/// `include-cycle`, one finding per distinct cycle.
std::vector<Finding> check_include_cycles(
    const std::vector<FileInclude>& includes);

}  // namespace delta::lint
