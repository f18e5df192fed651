// Throughput-regression harness (docs/performance.md).
//
// The measurements, all emitted to BENCH_throughput.json:
//   * cache kernel  — the live SoA SetAssocCache vs the frozen pre-rewrite
//     AoS copy (legacy_cache.hpp) on an identical synthetic stream, with a
//     full-field oracle replay first (every AccessResult must match before
//     anything is timed).  The new/legacy ratio is the machine-independent
//     record of the hot-path rewrite's payoff and the number CI regresses
//     against.
//   * simd          — per-kernel vector-vs-scalar ratios (match_u64 and
//     find_u64 against their reference loops) plus the compiled backend
//     name; ~1.0x by construction under -DDELTA_NO_SIMD (new in v4).
//   * simulator     — measured accesses/sec of a short w6 16-core run per
//     scheme (best of `reps`), the end-to-end single-thread figure.
//   * irregular     — the same end-to-end figure on the wi1 irregular mix
//     under delta: the flat-miss-curve family stresses the eviction path
//     instead of the hit path (new in v4).
//   * sweep         — wall-clock of a small all-scheme sweep at --jobs 1
//     vs --jobs N, with a byte-identity check on the results.  On a 1-CPU
//     host the ratio is ~1 by construction; `hw_threads` is recorded so
//     consumers can tell "no speedup available" from "regression".
//   * intra         — ONE 64-tile delta run at --intra-jobs 1/2/4/8: the
//     scaling curve of the stage/apply/reduce epoch engine, with the same
//     byte-identity requirement (and the same 1-CPU caveat; divergence
//     fails regardless of host, speedup is gated only on multi-core
//     runners — bench_diff skips the ratio when hw_threads == 1).
//   * engine_health — machine-independent scheduler counters from the
//     profiled run (barriers per epoch, tasks, steal fraction; v5).
//     barriers_per_epoch is structural — 2 per epoch for the engine's one
//     section vs 6 for the old three-section lockstep — and bench_diff
//     gates it on every host.
//
// Usage: micro_throughput [--out BENCH_throughput.json] [--jobs N]
//                         [--reps N] [--quick]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "legacy_cache.hpp"
#include "mem/cache.hpp"
#include "obs/export.hpp"
#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "sim/report.hpp"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;

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
/// and every AccessResult field must agree.  This is the bit-exactness gate
/// the timing below rides on — a fast-but-wrong kernel fails here first.
bool replay_identical(const KernelStream& s) {
  mem::SetAssocCache soa(512, 16);
  bench::legacy::SetAssocCache aos(512, 16);
  const mem::WayMask all = mem::full_mask(soa.ways());
  for (std::size_t i = 0; i < s.sets.size(); ++i) {
    const mem::AccessResult a = soa.access(s.sets[i], s.blocks[i], s.owners[i], all);
    const mem::AccessResult b = aos.access(s.sets[i], s.blocks[i], s.owners[i], all);
    if (a.hit != b.hit || a.evicted != b.evicted || a.way != b.way ||
        a.victim_block != b.victim_block || a.victim_owner != b.victim_owner)
      return false;
  }
  return true;
}

template <typename Cache>
double kernel_accesses_per_sec(Cache& cache, const KernelStream& s, int reps) {
  const mem::WayMask all = mem::full_mask(cache.ways());
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < s.sets.size(); ++i)
      sink += static_cast<std::uint64_t>(
          cache.access(s.sets[i], s.blocks[i], s.owners[i], all).hit);
    const double dt = seconds_since(t0);
    if (sink == ~std::uint64_t{0}) std::printf(" ");  // Defeat dead-code elim.
    if (dt < best) best = dt;
  }
  return static_cast<double>(s.sets.size()) / best;
}

/// One simd-vs-scalar kernel measurement: ops/sec for each flavour plus the
/// ratio.  Both loops run over identical pre-generated data in the same
/// process, so the ratio is a property of the compiled backend, not the host
/// load (the same argument as the cache-kernel ratio).
struct SimdKernelPoint {
  double simd_ops_per_sec = 0.0;
  double scalar_ops_per_sec = 0.0;
  double ratio = 0.0;
};

template <typename F>
double ops_per_sec(std::size_t ops, int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const std::uint64_t sink = body();
    const double dt = seconds_since(t0);
    if (sink == ~std::uint64_t{0}) std::printf(" ");  // Defeat dead-code elim.
    if (dt < best) best = dt;
  }
  return static_cast<double>(ops) / best;
}

/// match_u64 over 16-way tag rows — the cache hit path's shape.
SimdKernelPoint bench_match(int reps, std::size_t rows_n) {
  Rng rng(7);
  std::vector<std::uint64_t> rows(rows_n * 16);
  for (auto& v : rows) v = rng.below(64);  // Small pool => frequent matches.
  SimdKernelPoint p;
  p.simd_ops_per_sec = ops_per_sec(rows_n, reps, [&] {
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < rows_n; ++i)
      sink += simd::match_u64(rows.data() + i * 16, 16, i & 63);
    return sink;
  });
  p.scalar_ops_per_sec = ops_per_sec(rows_n, reps, [&] {
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < rows_n; ++i)
      sink += simd::match_u64_scalar(rows.data() + i * 16, 16, i & 63);
    return sink;
  });
  p.ratio = p.simd_ops_per_sec / p.scalar_ops_per_sec;
  return p;
}

/// find_u64 over 192-entry stacks — the UMON shadow-tag search's shape
/// (most probes miss deep or entirely).
SimdKernelPoint bench_find(int reps, std::size_t probes_n) {
  constexpr std::size_t kStack = 192;
  Rng rng(9);
  std::vector<std::uint64_t> stack(kStack);
  for (std::size_t i = 0; i < kStack; ++i) stack[i] = i * 2 + 1;
  std::vector<std::uint64_t> keys(probes_n);
  for (auto& k : keys) k = rng.below(kStack * 4);  // ~25% hit rate, any depth.
  SimdKernelPoint p;
  p.simd_ops_per_sec = ops_per_sec(probes_n, reps, [&] {
    std::uint64_t sink = 0;
    for (const std::uint64_t k : keys)
      sink += simd::find_u64(stack.data(), kStack, k);
    return sink;
  });
  p.scalar_ops_per_sec = ops_per_sec(probes_n, reps, [&] {
    std::uint64_t sink = 0;
    for (const std::uint64_t k : keys)
      sink += simd::find_u64_scalar(stack.data(), kStack, k);
    return sink;
  });
  p.ratio = p.simd_ops_per_sec / p.scalar_ops_per_sec;
  return p;
}

struct SchemeThroughput {
  std::string scheme;
  double accesses_per_sec = 0.0;
};

SchemeThroughput sim_throughput(const sim::MachineConfig& cfg,
                                const workload::Mix& mix, sim::SchemeKind kind,
                                int reps) {
  SchemeThroughput out;
  out.scheme = std::string(sim::to_string(kind));
  sim::run_mix(cfg, mix, kind);  // Warm caches and registries.
  double best = 1e300;
  std::uint64_t accesses = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const sim::MixResult res = sim::run_mix(cfg, mix, kind);
    const double dt = seconds_since(t0);
    accesses = 0;
    for (const auto& a : res.apps) accesses += a.llc_accesses;
    if (dt < best) best = dt;
  }
  out.accesses_per_sec = static_cast<double>(accesses) / best;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv, {"out", "quick", "reps"});
  const std::string out_path = cli.get("out", "BENCH_throughput.json");
  const bool quick = cli.has("quick");
  const int reps = cli.get_int_at_least("reps", 3, 1);
  const unsigned jobs = cli.jobs() == 0 ? hardware_threads() : cli.jobs();
  bench::print_header("micro_throughput — engine & sweep throughput harness",
                      "repo performance baseline (docs/performance.md)");

  // ---- Cache kernel: SoA vs frozen AoS. ----
  // Two streams bracket the sim's behaviour: a hit-heavy one (footprint
  // fits in the cache — the common case once warm) and a thrashing one
  // (footprint 1.5x capacity, eviction path dominates).
  const std::size_t stream_len = quick ? 1'000'000 : 4'000'000;
  const KernelStream hit_stream = make_stream(stream_len, 512, 12);
  const KernelStream miss_stream = make_stream(stream_len, 512, 24);
  const bool replay_ok =
      replay_identical(hit_stream) && replay_identical(miss_stream);
  std::printf("cache kernel oracle replay: %s\n",
              replay_ok ? "identical" : "DIVERGENT");
  double hit_ratio = 0.0, miss_ratio = 0.0;
  double soa_hit_rate = 0.0, aos_hit_rate = 0.0;
  double soa_miss_rate = 0.0, aos_miss_rate = 0.0;
  {
    mem::SetAssocCache soa(512, 16);
    bench::legacy::SetAssocCache aos(512, 16);
    soa_hit_rate = kernel_accesses_per_sec(soa, hit_stream, reps);
    aos_hit_rate = kernel_accesses_per_sec(aos, hit_stream, reps);
    hit_ratio = soa_hit_rate / aos_hit_rate;
  }
  {
    mem::SetAssocCache soa(512, 16);
    bench::legacy::SetAssocCache aos(512, 16);
    soa_miss_rate = kernel_accesses_per_sec(soa, miss_stream, reps);
    aos_miss_rate = kernel_accesses_per_sec(aos, miss_stream, reps);
    miss_ratio = soa_miss_rate / aos_miss_rate;
  }
  std::printf("cache kernel (hit-heavy):  SoA %.0f acc/s, legacy %.0f acc/s, "
              "ratio %.2fx\n", soa_hit_rate, aos_hit_rate, hit_ratio);
  std::printf("cache kernel (thrashing):  SoA %.0f acc/s, legacy %.0f acc/s, "
              "ratio %.2fx\n", soa_miss_rate, aos_miss_rate, miss_ratio);

  // ---- SIMD kernels vs their scalar references (new in v4). ----
  const std::size_t simd_ops = quick ? 1'000'000 : 4'000'000;
  const SimdKernelPoint match_pt = bench_match(reps, simd_ops);
  const SimdKernelPoint find_pt = bench_find(reps, simd_ops / 8);
  std::printf("simd backend %s: match_u64 %.2fx scalar, find_u64 %.2fx scalar\n",
              simd::backend_name(), match_pt.ratio, find_pt.ratio);

  // ---- Single-thread simulator throughput per scheme. ----
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 20;
  cfg.measure_epochs = quick ? 40 : 120;
  const workload::Mix mix = sim::mix_for_config(cfg, "w6");
  // Pre-rewrite engine throughput on the SAME protocol (w6, 16 cores,
  // 20+120 epochs, best of 3), measured on this repo's reference container
  // immediately before the hot-path rewrite landed.  Ratios against these
  // are exact on that host and indicative elsewhere; the cache-kernel
  // ratios above are the machine-independent cross-check.
  struct Reference { const char* scheme; double accesses_per_sec; };
  const Reference kPrePr[] = {{"snuca", 7221539.0},
                              {"private", 8661156.0},
                              {"ideal-central", 7934701.0},
                              {"delta", 7408045.0}};
  std::vector<SchemeThroughput> schemes;
  for (const sim::SchemeKind kind : sim::kPaperSchemeKinds) {
    schemes.push_back(sim_throughput(cfg, mix, kind, reps));
    std::printf("simulator %-14s %.0f meas-accesses/sec\n",
                schemes.back().scheme.c_str(), schemes.back().accesses_per_sec);
  }

  // ---- Irregular-mix throughput (new in v4): wi1 under delta. ----
  // The flat-miss-curve kernels drive the engine through the miss/eviction
  // path almost exclusively — the complementary regime to w6 above.
  const workload::Mix irr_mix = sim::mix_for_config(cfg, "wi1");
  const SchemeThroughput irr =
      sim_throughput(cfg, irr_mix, sim::SchemeKind::kDelta, reps);
  std::printf("irregular (wi1, delta)   %.0f meas-accesses/sec\n",
              irr.accesses_per_sec);

  // ---- Sweep: serial vs parallel wall-clock + byte-identity. ----
  sim::MachineConfig sweep_cfg = cfg;
  sweep_cfg.measure_epochs = quick ? 20 : 60;
  std::vector<workload::Mix> sweep_mixes = {
      sim::mix_for_config(sweep_cfg, "w2"), sim::mix_for_config(sweep_cfg, "w6")};
  const auto t_serial = Clock::now();
  const auto serial =
      sim::run_schemes(sweep_cfg, sweep_mixes, sim::kPaperSchemeKinds, 1);
  const double serial_s = seconds_since(t_serial);
  const auto t_par = Clock::now();
  const auto par =
      sim::run_schemes(sweep_cfg, sweep_mixes, sim::kPaperSchemeKinds, jobs);
  const double par_s = seconds_since(t_par);

  // Byte-level determinism check: the full JSON summaries must match.
  bool identical = true;
  for (std::size_t m = 0; m < serial.size(); ++m)
    identical &= sim::json_summary(serial[m]) == sim::json_summary(par[m]);
  const double sweep_speedup = par_s > 0.0 ? serial_s / par_s : 0.0;
  std::printf("sweep (8 runs): serial %.2fs, --jobs %u %.2fs, speedup %.2fx, "
              "results %s\n", serial_s, jobs, par_s, sweep_speedup,
              identical ? "identical" : "DIVERGENT");

  // ---- Intra-run engine: one 64-tile delta run, sharded epochs. ----
  // The sweep above parallelises *across* runs; this curve is the payoff
  // for the single long run a sweep cannot split.  w13 on the 64-tile
  // machine keeps all 64 banks busy so phase 2 has real parallelism.
  sim::MachineConfig intra_cfg = sim::config64();
  intra_cfg.warmup_epochs = 10;
  intra_cfg.measure_epochs = quick ? 10 : 30;
  const workload::Mix intra_mix = sim::mix_for_config(intra_cfg, "w13");
  struct IntraPoint {
    int jobs;
    double seconds = 0.0;
    std::string summary;
  };
  std::vector<IntraPoint> intra_points;
  for (const int ij : {1, 2, 4, 8}) {
    sim::MachineConfig c = intra_cfg;
    c.intra_jobs = ij;
    IntraPoint p;
    p.jobs = ij;
    sim::run_mix(c, intra_mix, sim::SchemeKind::kDelta);  // Warm.
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      const sim::MixResult res = sim::run_mix(c, intra_mix, sim::SchemeKind::kDelta);
      const double dt = seconds_since(t0);
      if (dt < best) best = dt;
      p.summary = sim::json_summary({&res, 1});
    }
    p.seconds = best;
    intra_points.push_back(std::move(p));
  }
  bool intra_identical = true;
  for (const IntraPoint& p : intra_points)
    intra_identical &= p.summary == intra_points.front().summary;
  for (const IntraPoint& p : intra_points)
    std::printf("intra (64-tile delta): --intra-jobs %d  %.2fs  speedup %.2fx\n",
                p.jobs, p.seconds,
                p.seconds > 0.0 ? intra_points.front().seconds / p.seconds : 0.0);
  std::printf("intra results %s\n", intra_identical ? "identical" : "DIVERGENT");

  // ---- Prof phase breakdown: one profiled 4-way intra run (new in v3).
  // Runs after all timing so arming the profiler cannot touch the numbers
  // above; phase totals answer "where does an intra epoch go" and the two
  // gauges are the engine-health indicators docs/performance.md tracks.
  obs::prof::MetricsRegistry::global().reset_values();
  obs::prof::Profiler::instance().clear();
  obs::prof::set_level(obs::prof::ProfLevel::kFull);
  {
    sim::MachineConfig c = intra_cfg;
    c.intra_jobs = 4;
    sim::run_mix(c, intra_mix, sim::SchemeKind::kDelta);
  }
  obs::prof::set_level(obs::prof::ProfLevel::kOff);
  const obs::prof::ProfSnapshot prof_snap = obs::prof::Profiler::instance().snapshot();
  const obs::prof::RegistrySnapshot prof_reg =
      obs::prof::MetricsRegistry::global().snapshot();
  const auto gauge_or_zero = [&](const char* name) {
    const obs::prof::MetricSample* m = prof_reg.find(name);
    return m != nullptr ? m->value : 0.0;
  };
  const double barrier_frac = gauge_or_zero("delta_intra_barrier_wait_fraction");
  const double imbalance = gauge_or_zero("delta_intra_worker_imbalance_ratio");
  std::printf("prof (4-way intra): pipeline %.1fms stage %.1fms apply %.1fms "
              "reduce %.1fms barrier %.1fms, wait fraction %.3f, imbalance %.2f\n",
              prof_snap.phase_ns(obs::prof::Phase::kPipeline) / 1e6,
              prof_snap.phase_ns(obs::prof::Phase::kStage) / 1e6,
              prof_snap.phase_ns(obs::prof::Phase::kApply) / 1e6,
              prof_snap.phase_ns(obs::prof::Phase::kReduce) / 1e6,
              prof_snap.phase_ns(obs::prof::Phase::kBarrier) / 1e6,
              barrier_frac, imbalance);

  // ---- Engine-health counters (v5): machine-independent scheduler shape
  // of the profiled run.  The registry was reset right before it, so the
  // totals cover exactly that run's epochs.
  const double health_epochs = gauge_or_zero("delta_intra_engine_epochs_total");
  const double health_tasks = gauge_or_zero("delta_intra_tasks_total");
  const double barriers_per_epoch = gauge_or_zero("delta_intra_barriers_per_epoch");
  const double sections_per_epoch =
      health_epochs > 0.0
          ? gauge_or_zero("delta_intra_pool_sections_total") / health_epochs
          : 0.0;
  const double tasks_per_epoch =
      health_epochs > 0.0 ? health_tasks / health_epochs : 0.0;
  const double steal_frac = gauge_or_zero("delta_intra_steal_fraction");
  std::printf("engine health: %.1f barriers/epoch, %.1f tasks/epoch, "
              "steal fraction %.3f\n",
              barriers_per_epoch, tasks_per_epoch, steal_frac);

  // ---- BENCH_throughput.json. ----
  std::string j;
  j += "{\n";
  j += "  \"schema\": \"delta-bench-throughput-v5\",\n";
  j += "  \"hw_threads\": " +
       obs::json_num(static_cast<double>(std::thread::hardware_concurrency())) + ",\n";
  j += "  \"jobs\": " + obs::json_num(static_cast<double>(jobs)) + ",\n";
  j += "  \"cache_kernel\": {\n";
  j += std::string("    \"replay_identical\": ") +
       (replay_ok ? "true" : "false") + ",\n";
  j += "    \"hit_heavy\": {\n";
  j += "      \"soa_accesses_per_sec\": " + obs::json_num(soa_hit_rate) + ",\n";
  j += "      \"legacy_accesses_per_sec\": " + obs::json_num(aos_hit_rate) + ",\n";
  j += "      \"new_over_legacy\": " + obs::json_num(hit_ratio) + "\n";
  j += "    },\n";
  j += "    \"thrashing\": {\n";
  j += "      \"soa_accesses_per_sec\": " + obs::json_num(soa_miss_rate) + ",\n";
  j += "      \"legacy_accesses_per_sec\": " + obs::json_num(aos_miss_rate) + ",\n";
  j += "      \"new_over_legacy\": " + obs::json_num(miss_ratio) + "\n";
  j += "    }\n";
  j += "  },\n";
  j += "  \"simulator\": {\n";
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    double ref = 0.0;
    for (const Reference& r : kPrePr)
      if (schemes[i].scheme == r.scheme) ref = r.accesses_per_sec;
    j += "    \"" + obs::json_escape(schemes[i].scheme) + "\": {\n";
    j += "      \"accesses_per_sec\": " + obs::json_num(schemes[i].accesses_per_sec) +
         ",\n";
    j += "      \"pre_pr_reference\": " + obs::json_num(ref) + ",\n";
    j += "      \"speedup_vs_reference\": " +
         obs::json_num(ref > 0.0 ? schemes[i].accesses_per_sec / ref : 0.0) + "\n";
    j += i + 1 < schemes.size() ? "    },\n" : "    }\n";
  }
  j += "  },\n";
  j += "  \"simd\": {\n";
  j += "    \"backend\": \"" + std::string(simd::backend_name()) + "\",\n";
  const auto simd_obj = [](const char* name, const SimdKernelPoint& p,
                           bool last) {
    std::string o = "    \"" + std::string(name) + "\": {\n";
    o += "      \"simd_ops_per_sec\": " + obs::json_num(p.simd_ops_per_sec) + ",\n";
    o += "      \"scalar_ops_per_sec\": " + obs::json_num(p.scalar_ops_per_sec) +
         ",\n";
    o += "      \"simd_over_scalar\": " + obs::json_num(p.ratio) + "\n";
    o += last ? "    }\n" : "    },\n";
    return o;
  };
  j += simd_obj("match_u64", match_pt, false);
  j += simd_obj("find_u64", find_pt, true);
  j += "  },\n";
  j += "  \"irregular\": {\n";
  j += "    \"mix\": \"wi1\",\n";
  j += "    \"scheme\": \"delta\",\n";
  j += "    \"accesses_per_sec\": " + obs::json_num(irr.accesses_per_sec) + "\n";
  j += "  },\n";
  j += "  \"sweep\": {\n";
  j += "    \"runs\": 8,\n";
  j += "    \"serial_seconds\": " + obs::json_num(serial_s) + ",\n";
  j += "    \"parallel_seconds\": " + obs::json_num(par_s) + ",\n";
  j += "    \"speedup\": " + obs::json_num(sweep_speedup) + ",\n";
  j += std::string("    \"byte_identical\": ") + (identical ? "true" : "false") + "\n";
  j += "  },\n";
  j += "  \"intra\": {\n";
  j += "    \"machine\": \"64-tile\",\n";
  j += "    \"scheme\": \"delta\",\n";
  j += "    \"points\": [\n";
  for (std::size_t i = 0; i < intra_points.size(); ++i) {
    const IntraPoint& p = intra_points[i];
    j += "      { \"intra_jobs\": " + obs::json_num(static_cast<double>(p.jobs)) +
         ", \"seconds\": " + obs::json_num(p.seconds) +
         ", \"speedup_vs_serial\": " +
         obs::json_num(p.seconds > 0.0 ? intra_points.front().seconds / p.seconds
                                       : 0.0) +
         " }";
    j += i + 1 < intra_points.size() ? ",\n" : "\n";
  }
  j += "    ],\n";
  j += std::string("    \"byte_identical\": ") +
       (intra_identical ? "true" : "false") + "\n";
  j += "  },\n";
  j += "  \"prof\": {\n";
  j += "    \"intra_jobs\": 4,\n";
  j += "    \"phase_ms\": {\n";
  j += "      \"pipeline\": " +
       obs::json_num(prof_snap.phase_ns(obs::prof::Phase::kPipeline) / 1e6) +
       ",\n";
  j += "      \"stage\": " +
       obs::json_num(prof_snap.phase_ns(obs::prof::Phase::kStage) / 1e6) + ",\n";
  j += "      \"apply\": " +
       obs::json_num(prof_snap.phase_ns(obs::prof::Phase::kApply) / 1e6) + ",\n";
  j += "      \"reduce\": " +
       obs::json_num(prof_snap.phase_ns(obs::prof::Phase::kReduce) / 1e6) + ",\n";
  j += "      \"serial_tail\": " +
       obs::json_num(prof_snap.phase_ns(obs::prof::Phase::kSerialTail) / 1e6) +
       ",\n";
  j += "      \"barrier\": " +
       obs::json_num(prof_snap.phase_ns(obs::prof::Phase::kBarrier) / 1e6) + "\n";
  j += "    },\n";
  j += "    \"barrier_wait_fraction\": " + obs::json_num(barrier_frac) + ",\n";
  j += "    \"worker_imbalance_ratio\": " + obs::json_num(imbalance) + "\n";
  j += "  },\n";
  j += "  \"engine_health\": {\n";
  j += "    \"epochs\": " + obs::json_num(health_epochs) + ",\n";
  j += "    \"barriers_per_epoch\": " + obs::json_num(barriers_per_epoch) + ",\n";
  j += "    \"pool_sections_per_epoch\": " + obs::json_num(sections_per_epoch) +
       ",\n";
  j += "    \"tasks_per_epoch\": " + obs::json_num(tasks_per_epoch) + ",\n";
  j += "    \"steal_fraction\": " + obs::json_num(steal_frac) + "\n";
  j += "  }\n";
  j += "}\n";
  if (!obs::write_text_file(out_path, j)) {
    std::perror(("writing " + out_path).c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!replay_ok || !identical || !intra_identical) return 2;
  // Loose regression floor: the SoA kernel falling below 70% of the frozen
  // legacy engine means the hot-path rewrite has been badly regressed (the
  // slack absorbs shared-runner noise; healthy ratios sit well above 1).
  if (hit_ratio < 0.7 || miss_ratio < 0.7) {
    std::fprintf(stderr, "FAIL: cache kernel slower than 0.7x legacy "
                 "(hit-heavy %.2fx, thrashing %.2fx)\n", hit_ratio, miss_ratio);
    return 3;
  }
  return 0;
}
