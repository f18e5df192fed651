// Observability overhead micro-benchmark: proves that compiled-in
// instrumentation is effectively free when disabled.
//
// Three configurations of the same end-to-end simulation are interleaved
// (A/B/C, A/B/C, ...) so thermal and allocator drift hits all of them
// equally, and the per-configuration *minimum* wall time is compared —
// the minimum is the least-noise estimate of true cost:
//
//   baseline — no observer attached (null recorder pointers everywhere);
//   disabled — observer at level `off` attached: every emission site runs
//              its pointer test, nothing is collected;
//   full     — event trace + epoch timeline collected.
//
// Acceptance budget: disabled-vs-baseline overhead < 2%.  The binary exits
// nonzero on violation so CI can enforce the budget.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "obs/observer.hpp"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;

double timed_run(const sim::MachineConfig& cfg, const workload::Mix& mix,
                 obs::Observer* obs) {
  const auto t0 = Clock::now();
  const sim::MixResult r =
      sim::run_mix(cfg, mix, sim::SchemeKind::kDelta, {}, obs);
  const auto t1 = Clock::now();
  if (r.geomean_ipc <= 0.0) std::fprintf(stderr, "suspicious run result\n");
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const delta::bench::Cli cli(argc, argv);
  bench::print_header("Observability overhead (delta scheme, mix w6, 16 cores)",
                      "ISSUE acceptance: disabled-path overhead < 2%");

  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 20;
  cfg.measure_epochs = 120;
  const workload::Mix mix = sim::mix_for_config(cfg, "w6");

  constexpr int kReps = 5;
  std::vector<double> base_ms, off_ms, full_ms;
  // Warm the allocator/caches once before measuring.
  timed_run(cfg, mix, nullptr);
  for (int rep = 0; rep < kReps; ++rep) {
    base_ms.push_back(timed_run(cfg, mix, nullptr));
    obs::Observer off(obs::ObsLevel::kOff);
    off_ms.push_back(timed_run(cfg, mix, &off));
    obs::Observer full(obs::ObsLevel::kFull);
    full_ms.push_back(timed_run(cfg, mix, &full));
    if (rep == 0)
      std::printf("full trace collected %zu events, %zu timeline rows\n",
                  full.events().size(),
                  full.timeline().cores().size() + full.timeline().mcus().size() +
                      full.timeline().chips().size());
  }

  const auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double base = best(base_ms);
  const double off = best(off_ms);
  const double full = best(full_ms);
  const double off_pct = (off / base - 1.0) * 100.0;
  const double full_pct = (full / base - 1.0) * 100.0;

  std::printf("\n%-28s %10s %10s\n", "configuration", "best ms", "overhead");
  std::printf("%-28s %10.1f %10s\n", "baseline (no observer)", base, "-");
  std::printf("%-28s %10.1f %+9.2f%%\n", "observer attached, level off", off, off_pct);
  std::printf("%-28s %10.1f %+9.2f%%\n", "observer level full", full, full_pct);

  constexpr double kBudgetPct = 2.0;
  const bool ok = off_pct < kBudgetPct;
  std::printf("\ndisabled-path overhead %+.2f%% vs budget %.1f%% — %s\n", off_pct,
              kBudgetPct, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
