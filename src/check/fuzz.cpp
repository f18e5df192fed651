#include "check/fuzz.hpp"

#include <array>
#include <span>

#include "check/differential.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/irregular.hpp"
#include "workload/mixes.hpp"
#include "workload/spec.hpp"

namespace delta::check {
namespace {

/// Draws the machine configuration for a case.  Every knob that interacts
/// with the invariants gets exercised: both chunk-index encodings, tight
/// and loose reconfiguration cadences, and a home floor down at 2 ways so
/// conservation margins are thin.
sim::MachineConfig draw_config(Rng& rng, std::uint64_t seed,
                               const FuzzOptions& opt) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 4 + static_cast<int>(rng.below(9));     // 4..12
  cfg.measure_epochs = 16 + static_cast<int>(rng.below(25));  // 16..40
  std::uint64_t sm = seed;
  cfg.seed = splitmix64(sm);
  cfg.lockstep_accesses = opt.lockstep;
  cfg.intra_jobs = opt.intra_jobs;
  // Consumed for a knob that no longer exists (the measured-MLP mode), so
  // every later draw, and the seeds test_fuzz pins, stay as they were.
  (void)rng.chance(0.5);

  constexpr std::array<int, 3> kInter = {5, 10, 20};
  constexpr std::array<int, 2> kIntra = {1, 2};
  constexpr std::array<double, 3> kGainThresh = {0.25, 0.5, 1.0};
  constexpr std::array<int, 2> kMinWays = {2, 4};
  constexpr std::array<int, 2> kInterDelta = {2, 4};
  constexpr std::array<int, 2> kIntraDelta = {1, 2};
  cfg.delta.inter_interval_epochs = kInter[rng.below(kInter.size())];
  cfg.delta.intra_interval_epochs = kIntra[rng.below(kIntra.size())];
  cfg.delta.gain_threshold = kGainThresh[rng.below(kGainThresh.size())];
  cfg.delta.min_ways = kMinWays[rng.below(kMinWays.size())];
  cfg.delta.inter_delta_ways = kInterDelta[rng.below(kInterDelta.size())];
  cfg.delta.intra_delta_ways = kIntraDelta[rng.below(kIntraDelta.size())];
  cfg.delta.reverse_chunk_bits = !rng.chance(0.25);
  // Consumed for a knob that no longer exists (a second intra-bank
  // enforcement mode), so every seed keeps the mix draw_mix() drew for it;
  // test_fuzz pins seeds 0xCA, 202, 0x1F0C and 203 by their mixes.
  (void)rng.chance(0.25);
  return cfg;
}

// Every drawable app: the Table III stand-ins plus the irregular-access
// kernels, so fuzz cases also exercise the flat-miss-curve paths of each
// allocator (pain/gain and clustering with nothing to gain).
const std::vector<const workload::AppProfile*>& fuzz_app_pool() {
  static const std::vector<const workload::AppProfile*> pool = [] {
    std::vector<const workload::AppProfile*> v;
    for (const auto& p : workload::spec_profiles()) v.push_back(&p);
    for (const auto& p : workload::irregular_profiles()) v.push_back(&p);
    return v;
  }();
  return pool;
}

workload::Mix draw_mix(Rng& rng, std::uint64_t seed, int cores) {
  const auto& profiles = fuzz_app_pool();
  workload::Mix mix;
  mix.name = "fuzz-" + std::to_string(seed);
  mix.composition = "fuzz";
  bool any_active = false;
  for (int c = 0; c < cores; ++c) {
    if (rng.chance(0.2)) {
      mix.apps.push_back("idle");
    } else {
      mix.apps.push_back(profiles[rng.below(profiles.size())]->short_name);
      any_active = true;
    }
  }
  if (!any_active) mix.apps[0] = profiles.front()->short_name;
  return mix;
}

void append_tagged(std::vector<Violation>& dst, std::vector<Violation> src,
                   const std::string& scheme) {
  for (Violation& v : src) {
    v.detail = scheme + ": " + v.detail;
    dst.push_back(std::move(v));
  }
}

}  // namespace

FuzzCaseResult run_fuzz_case(std::uint64_t seed, const FuzzOptions& opt) {
  Rng rng(seed);
  const sim::MachineConfig cfg = draw_config(rng, seed, opt);
  const workload::Mix mix = draw_mix(rng, seed, cfg.cores);

  FuzzCaseResult out;
  out.seed = seed;
  for (const std::string& a : mix.apps) {
    if (!out.mix_desc.empty()) out.mix_desc += ' ';
    out.mix_desc += a;
  }

  // The full scheme pool: the paper's four plus the literature-comparison
  // pair (carma, lfoc), all cross-checked by the same oracle.
  std::vector<sim::MixResult> results;
  results.reserve(sim::kAllSchemeKinds.size());
  for (sim::SchemeKind kind : sim::kAllSchemeKinds) {
    CheckerOptions copts;
    copts.sweep_interval = opt.sweep_interval;
    InvariantChecker checker(copts);
    results.push_back(sim::run_mix(cfg, mix, kind, {}, /*obs=*/nullptr,
                                   opt.check_invariants ? &checker : nullptr));
    append_tagged(out.violations, checker.violations(),
                  std::string(sim::to_string(kind)));
    if (checker.total_violations() >
        static_cast<std::uint64_t>(checker.violations().size()))
      out.violations.push_back(Violation{
          InvariantKind::kCount, 0, kInvalidCore, kInvalidBank,
          static_cast<std::int64_t>(checker.total_violations()),
          static_cast<std::int64_t>(checker.violations().size()),
          std::string(sim::to_string(kind)) + ": further violations elided"});
  }

  if (opt.differential)
    append_tagged(out.violations, diff_schemes(results, opt.lockstep), "diff");

  out.json = sim::json_summary(results, /*obs=*/nullptr);
  out.ok = out.violations.empty();
  return out;
}

FuzzReport run_fuzz(const FuzzOptions& opt) {
  // Warm lazily-initialised singletons before fanning out workers.
  (void)workload::spec_profiles();
  (void)workload::irregular_profiles();

  FuzzReport report;
  report.cases.resize(static_cast<std::size_t>(opt.cases < 0 ? 0 : opt.cases));
  parallel_for(
      0, report.cases.size(),
      [&](std::size_t i) {
        report.cases[i] =
            run_fuzz_case(opt.base_seed + static_cast<std::uint64_t>(i), opt);
      },
      opt.threads);
  for (const FuzzCaseResult& c : report.cases)
    if (!c.ok) ++report.failures;
  return report;
}

DeterminismReport verify_determinism(const FuzzOptions& opt, unsigned threads_a,
                                     unsigned threads_b) {
  FuzzOptions oa = opt;
  oa.threads = threads_a;
  FuzzOptions ob = opt;
  ob.threads = threads_b;
  const FuzzReport ra = run_fuzz(oa);
  const FuzzReport rb = run_fuzz(ob);

  DeterminismReport out;
  for (std::size_t i = 0; i < ra.cases.size() && i < rb.cases.size(); ++i) {
    const std::string& ja = ra.cases[i].json;
    const std::string& jb = rb.cases[i].json;
    if (ja == jb) continue;
    out.ok = false;
    out.seed = ra.cases[i].seed;
    std::size_t pos = 0;
    while (pos < ja.size() && pos < jb.size() && ja[pos] == jb[pos]) ++pos;
    out.detail = "seed " + std::to_string(out.seed) +
                 ": JSON summaries diverge at byte " + std::to_string(pos) +
                 " (" + std::to_string(threads_a) + " vs " +
                 std::to_string(threads_b) + " threads)";
    return out;
  }
  return out;
}

}  // namespace delta::check
