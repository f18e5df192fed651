#include "workload/irregular.hpp"

namespace delta::workload {
namespace {

Ring uniform(std::uint64_t bytes, double w) { return Ring{bytes, w, RingKind::kUniform}; }
Ring stream(double w) { return Ring{0, w, RingKind::kStream}; }
Ring gather(std::uint64_t bytes, double w) { return Ring{bytes, w, RingKind::kGather}; }
Ring hashjoin(std::uint64_t bytes, double w) { return Ring{bytes, w, RingKind::kHashJoin}; }
Ring walk(std::uint64_t bytes, double w) { return Ring{bytes, w, RingKind::kWalk}; }

// Same hierarchy CPI convention as the SPEC stand-ins (spec.cpp): the
// generators emit only the post-L2 stream, so L1/L2-resident work is folded
// into the base CPI.
constexpr double kHierarchyCpi = 0.9;

Phase phase(std::vector<Ring> rings, double mlp, double cpi_base, double apki) {
  Phase p;
  p.rings = std::move(rings);
  p.mlp = mlp;
  p.cpi_base = cpi_base + kHierarchyCpi;
  p.apki = apki;
  return p;
}

AppProfile app(std::string name, std::string code, AppClass cls, Phase p) {
  AppProfile a;
  a.name = std::move(name);
  a.short_name = std::move(code);
  a.cls = cls;
  a.phases.push_back(std::move(p));
  return a;
}

AppProfile phased_app(std::string name, std::string code, AppClass cls,
                      std::vector<Phase> phases, std::uint32_t phase_len_epochs) {
  AppProfile a;
  a.name = std::move(name);
  a.short_name = std::move(code);
  a.cls = cls;
  a.phases = std::move(phases);
  a.phase_len_epochs = phase_len_epochs;
  return a;
}

std::vector<AppProfile> build_profiles() {
  using enum AppClass;
  std::vector<AppProfile> v;

  // Class labels are what the Sec. III-B procedure measures on these
  // generators (tests/test_classify.cpp runs the classifier over the whole
  // family): flat curves mean <10% IPC gain at every classification point,
  // so the family splits purely on MPKI — high-rate kernels classify T,
  // the low-rate traversal classifies I.  None can classify L/LM: a flat
  // curve has no capacity region worth paying for, which is precisely the
  // property the allocators are being tested on.

  // Sparse matrix-vector product: sequential index stream feeding gathers
  // scattered across a 32 MiB source vector; a small accumulator tile is
  // the only cacheable state.
  v.push_back(app("spmv", "sv", kThrashing,
                  phase({uniform(96 * kKiB, 0.12), gather(32 * kMiB, 0.83), stream(0.05)},
                        5.0, 0.50, 20.0)));

  // Hash join, phased: the build pass writes a 32 MiB table in hashed
  // bucket order, then probe passes re-visit it with fresh key orders
  // while a hot key subset and the probe input stream ride along.
  v.push_back(phased_app(
      "hashjoin", "hj", kThrashing,
      {phase({hashjoin(32 * kMiB, 0.85), uniform(64 * kKiB, 0.10), stream(0.05)},
             4.5, 0.50, 22.0),
       phase({hashjoin(32 * kMiB, 0.60), uniform(96 * kKiB, 0.28), stream(0.12)},
             4.5, 0.50, 16.0)},
      120));

  // Breadth-first search over a 32 MiB adjacency structure: hashed node
  // walk plus a modest frontier the traversal re-reads.
  v.push_back(app("bfs", "bf", kThrashing,
                  phase({uniform(112 * kKiB, 0.25), walk(32 * kMiB, 0.70), stream(0.05)},
                        3.5, 0.55, 14.0)));

  // PageRank-style edge-centric pass: rank reads scatter across a 64 MiB
  // graph with almost nothing hot.
  v.push_back(app("pagerank", "pr", kThrashing,
                  phase({uniform(64 * kKiB, 0.12), walk(64 * kMiB, 0.83), stream(0.05)},
                        6.0, 0.45, 26.0)));

  // Pointer-chasing traversal with a low access rate: the same flat curve
  // at an MPKI below the thrashing threshold classifies insensitive —
  // the allocator still must not feed it ways.
  v.push_back(app("gwalk", "gw", kInsensitive,
                  phase({uniform(80 * kKiB, 0.30), walk(16 * kMiB, 0.65), stream(0.05)},
                        2.0, 0.55, 3.5)));

  return v;
}

}  // namespace

const std::vector<AppProfile>& irregular_profiles() {
  static const std::vector<AppProfile> profiles = build_profiles();
  return profiles;
}

}  // namespace delta::workload
