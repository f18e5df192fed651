// Observability overhead micro-benchmark: what collecting costs, and that
// not collecting is effectively free, on one 16-core delta simulation with
// two intra-run workers (engine sections and barrier derivation in the loop).
//
// Three configurations are interleaved (A/B/C, A/B/C, ...) so thermal and
// allocator drift hits all of them equally, and the per-configuration
// *minimum* wall time is compared — the least-noise estimate of true cost:
//
//   off      — no observer, profiler off: every run without outputs;
//   profiler — profiler on (what --prof-out / --metrics-out collect): spans,
//              per-call site aggregates, sampled merge timing, occupancy;
//   observer — observer at full (what --trace-out collects): event trace
//              and epoch timeline.
//
// Gates (the binary exits nonzero on a violation so CI can enforce them):
//   disabled profiler < 2% — every instrumentation site of the off run
//     pays one relaxed atomic load + branch.  A single binary cannot carry
//     an uninstrumented twin of the engine, so the bound is computed, not
//     raced: a tight loop prices one disabled site, the per-run site count
//     is read off a profiler snapshot (the off run executes exactly the
//     same sites' disabled branches), and the product is compared against
//     the off run's wall time.
//   full profiler < 8% — profiler vs off, best of N.
// The observer's full-collection cost is reported, not gated.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "obs/observer.hpp"
#include "obs/prof/prof.hpp"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;

double timed_run(const sim::MachineConfig& cfg, const workload::Mix& mix,
                 obs::Observer* obs) {
  const auto t0 = Clock::now();
  const sim::MixResult r = sim::run_mix(cfg, mix, sim::SchemeKind::kDelta, {}, obs);
  const auto t1 = Clock::now();
  if (r.geomean_ipc <= 0.0) std::fprintf(stderr, "suspicious run result\n");
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Prices one disabled instrumentation site: the loop body differs from the
/// baseline only by a ScopedSite whose gate check fails, so the per-
/// iteration delta is the relaxed load + branch every disabled site pays.
/// The volatile sink keeps both loops from collapsing.
double disabled_site_cost_ns() {
  constexpr std::uint64_t kIters = 20'000'000;
  volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) sink = sink + 1;
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    const obs::prof::ScopedSite site(obs::prof::Site::kStageCore);
    sink = sink + 1;
  }
  const auto t2 = Clock::now();
  const double base_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  const double site_ns = std::chrono::duration<double, std::nano>(t2 - t1).count();
  return std::max(0.0, (site_ns - base_ns) / static_cast<double>(kIters));
}

}  // namespace

int main(int argc, char** argv) {
  delta::bench::Cli cli(argc, argv);
  bench::print_header("Observability overhead (delta scheme, mix w6, 16 cores)",
                      "overhead contract: disabled profiler < 2%, full profiler < 8%");

  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 20;
  cfg.measure_epochs = 120;
  cfg.intra_jobs = 2;
  const workload::Mix mix = sim::mix_for_config(cfg, "w6");

  obs::prof::set_level(obs::prof::ProfLevel::kOff);
  timed_run(cfg, mix, nullptr);  // Warm the allocator/caches once before measuring.

  constexpr int kReps = 5;
  std::vector<double> off_ms, prof_ms, obs_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    off_ms.push_back(timed_run(cfg, mix, nullptr));
    obs::prof::Profiler::instance().clear();
    obs::prof::set_level(obs::prof::ProfLevel::kFull);
    prof_ms.push_back(timed_run(cfg, mix, nullptr));
    obs::prof::set_level(obs::prof::ProfLevel::kOff);
    obs::Observer full(obs::ObsLevel::kFull);
    obs_ms.push_back(timed_run(cfg, mix, &full));
    if (rep == 0)
      std::printf("observer collected %zu events, %zu timeline rows\n",
                  full.events().size(),
                  full.timeline().cores().size() + full.timeline().mcus().size() +
                      full.timeline().chips().size());
  }
  // The last profiled run's snapshot = the exact instrumentation-event
  // count any run of this configuration executes (sites fire per
  // batch/core/bank, spans per phase; the off run takes the disabled branch
  // of each).
  const obs::prof::ProfSnapshot snap = obs::prof::Profiler::instance().snapshot();
  std::uint64_t sites_per_run = snap.spans.size() + snap.dropped_spans;
  for (const obs::prof::SiteTotal& s : snap.sites) sites_per_run += s.calls;

  const auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double off = best(off_ms);
  const double prof_pct = (best(prof_ms) / off - 1.0) * 100.0;
  const double obs_pct = (best(obs_ms) / off - 1.0) * 100.0;

  const double site_ns = disabled_site_cost_ns();
  const double disabled_pct =
      site_ns * static_cast<double>(sites_per_run) / (off * 1e6) * 100.0;

  std::printf("\n%-32s %10s %10s\n", "configuration", "best ms", "overhead");
  std::printf("%-32s %10.1f %10s\n", "off (no outputs)", off, "-");
  std::printf("%-32s %10.1f %+9.2f%%\n", "profiler on", best(prof_ms), prof_pct);
  std::printf("%-32s %10.1f %+9.2f%%\n", "observer at full", best(obs_ms), obs_pct);
  std::printf("\ndisabled-site cost %.2f ns x %llu sites/run = %+.3f%% of the off run\n",
              site_ns, static_cast<unsigned long long>(sites_per_run), disabled_pct);

  constexpr double kDisabledBudgetPct = 2.0;
  constexpr double kFullBudgetPct = 8.0;
  const bool disabled_ok = disabled_pct < kDisabledBudgetPct;
  const bool full_ok = prof_pct < kFullBudgetPct;
  std::printf("\ndisabled profiler %+.3f%% vs budget %.1f%% — %s\n", disabled_pct,
              kDisabledBudgetPct, disabled_ok ? "PASS" : "FAIL");
  std::printf("full profiler     %+.2f%% vs budget %.1f%% — %s\n", prof_pct,
              kFullBudgetPct, full_ok ? "PASS" : "FAIL");
  return cli.finish(disabled_ok && full_ok ? 0 : 1);
}
