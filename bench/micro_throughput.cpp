// Kernel-throughput harness with built-in floors (docs/performance.md).
//
// What it measures:
//   * cache kernel — SetAssocCache::Kernel, the hit-or-fill entry the
//     access engine's bank merge runs, vs the frozen pre-rewrite AoS copy
//     (legacy_cache.hpp) on identical synthetic streams, at both lane
//     counts (16 and 32 ways), after a full-field oracle replay: every
//     AccessResult must match before anything is timed, or the harness
//     exits 2.
//   * simd — match_tag40 and find_u32 vs their scalar reference loops,
//     each side one non-inlined pass with alternating reps.
//   * intra — one 64-tile w13 delta run at --intra-jobs 1/2/4/8: the
//     scaling curve of the stage/apply/reduce engine, printed but not
//     gated (perfbench is the end-to-end and scaling benchmark).  The
//     results must be byte-identical at every width, or the harness
//     exits 2.
//
// Both sides of each ratio run in one process on the same data, so the
// ratio transfers across hosts.  Each ratio must reach its floor below; a
// ratio under its floor prints one `FAIL:` line and the harness exits 3.
//
// Usage: micro_throughput [--reps N] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "legacy_cache.hpp"
#include "mem/cache.hpp"
#include "sim/report.hpp"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;

// Floors: 0.6 x the ratios once recorded on a reference host (sse2 backend,
// RelWithDebInfo), the slack absorbing shared-runner noise.
constexpr double kHitHeavyFloor = 1.287312;   // 0.6 x 2.14552
constexpr double kThrashingFloor = 0.908604;  // 0.6 x 1.51434
// The SIMD floors hold only for the backend they were recorded on: a
// -DDELTA_NO_SIMD or other-ISA build measures a different kernel.
constexpr const char* kSimdFloorBackend = "sse2";
// 0.6 x the median of 7 Release --quick runs (4-vCPU x86-64 host, GCC 12).
// Release is the lower of the two gated builds: -O3 auto-vectorizes the
// scalar reference, so the ratio reads ~0.65x its RelWithDebInfo value
// (median 7.67 over 7 runs there).
constexpr double kMatchTag40Floor = 3.024;  // 0.6 x 5.04
// find_u32: 0.6 x the median of 7 RelWithDebInfo --quick runs on the same
// host, its lower build here (5.42-9.92x, median 8.45; Release read
// 7.68-11.47x, median 10.46).
constexpr double kFindU32Floor = 5.07;  // 0.6 x 8.45

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pre-generated access stream shared by both cache implementations so
/// they do byte-for-byte the same work.
struct KernelStream {
  std::vector<std::uint32_t> sets;
  std::vector<BlockAddr> blocks;
  std::vector<CoreId> owners;
};

KernelStream make_stream(std::size_t n, std::uint32_t sets, int footprint_ways) {
  KernelStream s;
  s.sets.reserve(n);
  s.blocks.reserve(n);
  s.owners.reserve(n);
  Rng rng(42);
  const BlockAddr lines = std::uint64_t{sets} * static_cast<std::uint64_t>(footprint_ways);
  for (std::size_t i = 0; i < n; ++i) {
    const BlockAddr b = rng.below(lines);
    s.sets.push_back(static_cast<std::uint32_t>(b) & (sets - 1));
    s.blocks.push_back(b);
    s.owners.push_back(static_cast<CoreId>(b & 15));
  }
  return s;
}

/// Oracle replay: fresh instances of both engines walk the stream together
/// and every AccessResult field must agree.  The live side runs the
/// engine's entry, Kernel<kLanes>::access, asked for its AccessResult.
/// This is the bit-exactness gate the timing below rides on — a
/// fast-but-wrong kernel fails here first.
template <int kLanes>
bool replay_identical(const KernelStream& s, int ways) {
  mem::SetAssocCache soa(512, ways);
  bench::legacy::SetAssocCache aos(512, ways);
  const mem::WayMask all = mem::full_mask(ways);
  mem::SetAssocCache::Kernel<kLanes> kernel(soa);
  for (std::size_t i = 0; i < s.sets.size(); ++i) {
    mem::AccessResult a;
    const bool hit = kernel.access(s.sets[i], s.blocks[i], s.owners[i], all, &a);
    const mem::AccessResult b = aos.access(s.sets[i], s.blocks[i], s.owners[i], all);
    if (hit != a.hit || a.hit != b.hit || a.evicted != b.evicted || a.way != b.way ||
        a.victim_block != b.victim_block || a.victim_owner != b.victim_owner)
      return false;
  }
  return true;
}

/// Best-of-reps accesses per second of `pass`, one run over the stream's
/// `n` accesses that returns a sink keeping its work alive.
template <typename Pass>
double accesses_per_sec(std::size_t n, int reps, Pass&& pass) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const std::uint64_t sink = pass();
    const double dt = seconds_since(t0);
    if (sink == ~std::uint64_t{0}) std::printf(" ");  // Defeat dead-code elim.
    if (dt < best) best = dt;
  }
  return static_cast<double>(n) / best;
}

/// Live (Kernel<kLanes>, held in a local as the bank merge holds it) and
/// legacy accesses per second over one stream, each on a fresh cache.
template <int kLanes>
double kernel_speedup(const KernelStream& s, int ways, int reps) {
  mem::SetAssocCache soa(512, ways);
  bench::legacy::SetAssocCache aos(512, ways);
  const mem::WayMask all = mem::full_mask(ways);
  const std::size_t n = s.sets.size();
  const double soa_rate = accesses_per_sec(n, reps, [&] {
    mem::SetAssocCache::Kernel<kLanes> kernel(soa);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      sink += kernel.access(s.sets[i], s.blocks[i], s.owners[i], all) ? 1 : 0;
    return sink;
  });
  const double aos_rate = accesses_per_sec(n, reps, [&] {
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      sink += aos.access(s.sets[i], s.blocks[i], s.owners[i], all).hit ? 1 : 0;
    return sink;
  });
  std::printf("live %.0f acc/s, legacy %.0f acc/s, ratio %.2fx", soa_rate, aos_rate,
              soa_rate / aos_rate);
  return soa_rate / aos_rate;
}

/// Times two passes `reps` times each, alternating a, b, a, b, ... so a
/// drift in host load or clock speed falls on both sides alike, and
/// returns the best-of-reps ratio time(b) / time(a): how many times faster
/// pass a ran.  Each pass returns a sink that keeps its work alive.
template <typename A, typename B>
double alternating_speedup(int reps, A&& a, B&& b) {
  double best_a = 1e300, best_b = 1e300;
  const auto timed = [](auto& pass, double& best) {
    const auto t0 = Clock::now();
    const std::uint64_t sink = pass();
    const double dt = seconds_since(t0);
    if (sink == ~std::uint64_t{0}) std::printf(" ");  // Defeat dead-code elim.
    best = std::min(best, dt);
  };
  for (int r = 0; r < reps; ++r) {
    timed(a, best_a);
    timed(b, best_b);
  }
  return best_b / best_a;
}

// Each SIMD ratio times its two sides through one non-inlined pass per
// side: the kernel inlines into a loop over probes, as it inlines into
// the cache and UMON loops that call it, and each loop is a 64-byte-aligned
// function of its own, so its code and alignment do not move when
// unrelated code in this translation unit changes.

/// 16-way split tag rows over one LLC bank's worth of sets (512 sets,
/// 40 KB), so the ratio measures the compare rather than DRAM streaming.
struct TagRows {
  static constexpr std::size_t kRows = 512;
  std::vector<std::uint32_t> lo = std::vector<std::uint32_t>(kRows * 16);
  std::vector<std::uint8_t> hi = std::vector<std::uint8_t>(kRows * 16);
};

template <bool kSimd>
[[gnu::noinline, gnu::aligned(64)]]
std::uint64_t tag40_pass(const TagRows& t, std::size_t probes_n) {
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < probes_n; ++i) {
    const std::size_t row = (i * 7 & (TagRows::kRows - 1)) * 16;
    const std::uint64_t key = (i & 63) | ((i >> 6 & 1) << 32);
    if constexpr (kSimd)
      sink += simd::match_tag40(t.lo.data() + row, t.hi.data() + row, 16, key);
    else
      sink += simd::match_tag40_scalar(t.lo.data() + row, t.hi.data() + row, 16, key);
  }
  return sink;
}

template <bool kSimd>
[[gnu::noinline, gnu::aligned(64)]]
std::uint64_t find_pass(const std::vector<std::uint32_t>& stack,
                        const std::vector<std::uint32_t>& keys) {
  std::uint64_t sink = 0;
  for (const std::uint32_t k : keys) {
    if constexpr (kSimd)
      sink += simd::find_u32(stack.data(), stack.size(), k);
    else
      sink += simd::find_u32_scalar(stack.data(), stack.size(), k);
  }
  return sink;
}

/// match_tag40 over 16-way split tag rows — the cache hit path's shape.
/// Both flavours run over identical pre-generated data in the same
/// process, so the SIMD/scalar ratio is a property of the compiled
/// backend, not of the host load (the same argument as the cache-kernel
/// ratio).
double bench_tag40(int reps, std::size_t probes_n) {
  Rng rng(7);
  TagRows t;
  // Small pools => frequent matches, and tags that share a low word but
  // not a high byte.
  for (auto& v : t.lo) v = static_cast<std::uint32_t>(rng.below(64));
  for (auto& v : t.hi) v = static_cast<std::uint8_t>(rng.below(2));
  return alternating_speedup(
      reps, [&] { return tag40_pass<true>(t, probes_n); },
      [&] { return tag40_pass<false>(t, probes_n); });
}

/// find_u32 over 192-entry stacks — the UMON shadow-tag search's shape
/// (most probes miss deep or entirely).
double bench_find(int reps, std::size_t probes_n) {
  constexpr std::size_t kStack = 192;
  Rng rng(9);
  std::vector<std::uint32_t> stack(kStack);
  for (std::size_t i = 0; i < kStack; ++i)
    stack[i] = static_cast<std::uint32_t>(i * 2 + 1);
  std::vector<std::uint32_t> keys(probes_n);
  for (auto& k : keys)  // ~25% hit rate, any depth.
    k = static_cast<std::uint32_t>(rng.below(kStack * 4));
  return alternating_speedup(
      reps, [&] { return find_pass<true>(stack, keys); },
      [&] { return find_pass<false>(stack, keys); });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv, {"quick", "reps"});
  const bool quick = cli.has_switch("quick");
  const int reps = cli.get_int_at_least("reps", 3, 1);
  bench::print_header("micro_throughput — kernel throughput harness",
                      "repo performance floors (docs/performance.md)");

  bool floors_ok = true;
  // Prints ` (floor F)` after a ratio, plus one FAIL line when it misses.
  const auto check = [&](const char* what, double ratio, double floor) {
    std::printf(" (floor %.2fx)\n", floor);
    if (ratio >= floor) return;
    std::fprintf(stderr, "FAIL: %s ratio %.3fx is below its floor %.3fx\n", what,
                 ratio, floor);
    floors_ok = false;
  };

  // ---- Cache kernel: live vs frozen AoS, at 16 and 32 lanes. ----
  // Two streams per width bracket the sim's behaviour: a hit-heavy one
  // (footprint 3/4 of the cache — the common case once warm) and a
  // thrashing one (footprint 1.5x capacity, eviction path dominates).  The
  // 24-way footprint serves as 16-way thrashing and 32-way hit-heavy.
  // Both lane counts are gated by the same floors.
  const std::size_t stream_len = quick ? 1'000'000 : 4'000'000;
  const KernelStream ways12 = make_stream(stream_len, 512, 12);
  const KernelStream ways24 = make_stream(stream_len, 512, 24);
  const KernelStream ways48 = make_stream(stream_len, 512, 48);
  const bool replay_ok =
      replay_identical<16>(ways12, 16) && replay_identical<16>(ways24, 16) &&
      replay_identical<simd::kMaxRankLanes>(ways24, 32) &&
      replay_identical<simd::kMaxRankLanes>(ways48, 32);
  std::printf("cache kernel oracle replay (16 and 32 ways): %s\n",
              replay_ok ? "identical" : "DIVERGENT");
  if (!replay_ok) return 2;
  const auto kernel_ratio = [&](const char* what, int ways, double ratio, double floor) {
    const std::string label = std::string(what) + ", " + std::to_string(ways) + " ways";
    std::printf(" [%s]", label.c_str());
    check(label.c_str(), ratio, floor);
  };
  std::printf("cache kernel: ");
  kernel_ratio("hit-heavy", 16, kernel_speedup<16>(ways12, 16, reps), kHitHeavyFloor);
  std::printf("cache kernel: ");
  kernel_ratio("thrashing", 16, kernel_speedup<16>(ways24, 16, reps), kThrashingFloor);
  std::printf("cache kernel: ");
  kernel_ratio("hit-heavy", 32,
               kernel_speedup<simd::kMaxRankLanes>(ways24, 32, reps), kHitHeavyFloor);
  std::printf("cache kernel: ");
  kernel_ratio("thrashing", 32,
               kernel_speedup<simd::kMaxRankLanes>(ways48, 32, reps), kThrashingFloor);

  // ---- SIMD kernels vs their scalar references. ----
  const std::size_t simd_ops = quick ? 1'000'000 : 4'000'000;
  const bool simd_gated = std::string_view(simd::backend_name()) == kSimdFloorBackend;
  const auto simd_ratio = [&](const char* what, double ratio, double floor) {
    std::printf("simd %s (%s): %.2fx scalar", what, simd::backend_name(), ratio);
    if (simd_gated) {
      check(what, ratio, floor);
    } else {
      std::printf(" (not gated: floors are for %s)\n", kSimdFloorBackend);
    }
  };
  simd_ratio("match_tag40", bench_tag40(reps, simd_ops), kMatchTag40Floor);
  simd_ratio("find_u32", bench_find(reps, simd_ops / 8), kFindU32Floor);

  // ---- Access engine: one 64-tile delta run at 1/2/4/8 workers. ----
  // w13 on the 64-tile machine keeps all 64 banks busy so the apply phase
  // has real parallelism.  The 30-epoch window holds under --quick too: at
  // 10 epochs the 4- and 8-worker points swung between 0.6x and 1.8x.
  sim::MachineConfig intra_cfg = sim::config64();
  intra_cfg.warmup_epochs = 10;
  intra_cfg.measure_epochs = 30;
  const workload::Mix intra_mix = sim::mix_for_config(intra_cfg, "w13");
  double one_worker_s = 0.0;
  std::string one_worker_summary;
  bool intra_identical = true;
  for (const int ij : {1, 2, 4, 8}) {
    sim::MachineConfig c = intra_cfg;
    c.intra_jobs = ij;
    sim::run_mix(c, intra_mix, sim::SchemeKind::kDelta);  // Warm.
    double best = 1e300;
    std::string summary;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      const sim::MixResult res = sim::run_mix(c, intra_mix, sim::SchemeKind::kDelta);
      best = std::min(best, seconds_since(t0));
      summary = sim::json_summary({&res, 1});
    }
    if (ij == 1) {
      one_worker_s = best;
      one_worker_summary = summary;
    }
    intra_identical &= summary == one_worker_summary;
    std::printf("intra (64-tile delta): --intra-jobs %d  %.2fs  speedup over 1 worker "
                "%.2fx\n",
                ij, best, one_worker_s / best);
  }
  std::printf("intra results %s\n", intra_identical ? "identical" : "DIVERGENT");
  if (!intra_identical) return 2;
  return floors_ok ? 0 : 3;
}
