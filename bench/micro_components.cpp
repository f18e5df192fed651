// google-benchmark microbenches of the hot components: per-access cache
// cost, UMON updates, CBT lookups/rebuilds, pain/gain evaluation, the
// allocation algorithms and the NoC helpers.
//
// Custom main instead of benchmark_main: the run is wrapped in bench::Cli
// so --prof-out/--metrics-out work here exactly as in every other harness
// (docs/observability.md).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "alloc/lookahead.hpp"
#include "alloc/peekahead.hpp"
#include "common/rng.hpp"
#include "core/cbt.hpp"
#include "core/pain_gain.hpp"
#include "core/way_partition.hpp"
#include "mem/cache.hpp"
#include "noc/mesh.hpp"
#include "umon/umon.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"

namespace {

using namespace delta;

void BM_CacheAccess(benchmark::State& state) {
  mem::SetAssocCache cache(512, 16);
  Rng rng(1);
  const mem::WayMask all = mem::full_mask(16);
  for (auto _ : state) {
    const BlockAddr b = rng.below(512 * 24);
    benchmark::DoNotOptimize(cache.access(static_cast<std::uint32_t>(b & 511), b, 0, all));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_CacheAccessMasked(benchmark::State& state) {
  mem::SetAssocCache cache(512, 16);
  Rng rng(1);
  const mem::WayMask quarter = 0xF000;
  for (auto _ : state) {
    const BlockAddr b = rng.below(512 * 24);
    benchmark::DoNotOptimize(
        cache.access(static_cast<std::uint32_t>(b & 511), b, 0, quarter));
  }
}
BENCHMARK(BM_CacheAccessMasked);

void BM_UmonAccess(benchmark::State& state) {
  umon::UmonConfig cfg;
  cfg.max_ways = static_cast<int>(state.range(0));
  umon::Umon u(cfg);
  Rng rng(2);
  const BlockAddr lines = static_cast<BlockAddr>(cfg.max_ways) * 512;
  for (auto _ : state) {
    u.access(rng.below(lines));
  }
}
BENCHMARK(BM_UmonAccess)->Arg(192)->Arg(768);

void BM_CbtLookup(benchmark::State& state) {
  core::Cbt cbt(0);
  cbt.rebuild({{0, 16}, {1, 8}, {2, 4}, {5, 4}});
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbt.lookup(rng(), 9));
  }
}
BENCHMARK(BM_CbtLookup);

void BM_CbtRebuild(benchmark::State& state) {
  core::Cbt cbt(0);
  std::vector<std::pair<BankId, int>> alloc{{0, 16}, {1, 8}, {2, 4}, {5, 4}, {9, 2}};
  for (auto _ : state) {
    cbt.rebuild(alloc);
    benchmark::DoNotOptimize(cbt.bank_for_chunk(100));
  }
}
BENCHMARK(BM_CbtRebuild);

void BM_PainGain(benchmark::State& state) {
  umon::UmonConfig cfg;
  cfg.max_ways = 192;
  umon::Umon u(cfg);
  Rng rng(4);
  for (int i = 0; i < 100'000; ++i) u.access(rng.below(512 * 48));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_pain_gain(u, 24, 8, 4, 4, 2.0));
  }
}
BENCHMARK(BM_PainGain);

void BM_WpTransfer(benchmark::State& state) {
  core::WpUnit wp(16, 0);
  for (auto _ : state) {
    wp.transfer(0, 1, 4);
    wp.transfer(1, 0, 4);
  }
}
BENCHMARK(BM_WpTransfer);

alloc::AllocRequest request_for(int cores) {
  Rng rng(5);
  alloc::AllocRequest req;
  const int total = cores * 16;
  for (int a = 0; a < cores; ++a) {
    std::vector<double> m(static_cast<std::size_t>(total) + 1);
    double cur = 1000.0;
    for (int w = 0; w <= total; ++w) {
      m[static_cast<std::size_t>(w)] = cur;
      cur -= rng.uniform() * cur / (total - w + 1);
    }
    req.curves.emplace_back(std::move(m));
  }
  req.total_ways = total;
  req.min_ways = 1;
  return req;
}

void BM_Lookahead(benchmark::State& state) {
  const alloc::AllocRequest req = request_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::lookahead(req));
  }
}
BENCHMARK(BM_Lookahead)->Arg(4)->Arg(16);

void BM_Peekahead(benchmark::State& state) {
  const alloc::AllocRequest req = request_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::peekahead(req));
  }
}
BENCHMARK(BM_Peekahead)->Arg(4)->Arg(16)->Arg(64);

void BM_MeshByDistance(benchmark::State& state) {
  noc::Mesh mesh(8, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh.by_distance(27));
  }
}
BENCHMARK(BM_MeshByDistance);

void BM_TraceGenNext(benchmark::State& state) {
  const workload::AppProfile& p = workload::spec_profile("mc");
  workload::TraceGen gen(p, 0, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_TraceGenNext);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first; the
  // strict bench::Cli then rejects whatever neither of them knows.
  benchmark::Initialize(&argc, argv);
  const bench::Cli cli(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
