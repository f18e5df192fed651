#include "sim/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "obs/prof/prof.hpp"
#include "workload/irregular.hpp"
#include "workload/spec.hpp"
#include "workload/splash.hpp"

namespace delta::sim {
namespace {

/// Resolves the auto (0) intra_jobs of sweep jobs to the leftover thread
/// budget: total budget divided by the sweep's outer fan-out, and never more
/// than the hardware thread count (a caller's `threads` may exceed it).
/// Returns the jobs by value only when something changed.
std::vector<SweepJob> split_intra_budget(const std::vector<SweepJob>& jobs,
                                         unsigned threads) {
  const bool any_auto =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const SweepJob& j) { return j.cfg.intra_jobs == 0; });
  if (!any_auto) return jobs;
  const unsigned budget = threads == 0 ? hardware_threads() : threads;
  const unsigned outer =
      std::min<unsigned>(budget, static_cast<unsigned>(jobs.size()));
  const unsigned per_job = resolve_workers(0, budget / std::max(1u, outer));
  std::vector<SweepJob> resolved = jobs;
  for (SweepJob& j : resolved)
    if (j.cfg.intra_jobs == 0) j.cfg.intra_jobs = static_cast<int>(per_job);
  return resolved;
}

}  // namespace

MixResult run_mix(const MachineConfig& cfg, const workload::Mix& mix, SchemeKind kind,
                  SchemeOptions opts, obs::Observer* obs, EpochChecker* checker) {
  if (static_cast<int>(mix.apps.size()) != cfg.cores)
    throw std::invalid_argument("mix size does not match core count");
  Chip chip(cfg, mix.apps, make_scheme(kind, opts));
  if (obs != nullptr) {
    obs->begin_run(std::string(to_string(kind)));
    chip.set_observer(obs);
  }
  chip.set_checker(checker);
  return chip.run(mix.name);
}

std::vector<MixResult> run_sweep(const std::vector<SweepJob>& jobs, unsigned threads,
                                 std::span<obs::Observer* const> observers) {
  if (!observers.empty() && observers.size() != jobs.size())
    throw std::invalid_argument("run_sweep needs one observer slot per job");
  // Warm the lazily-built profile registries before fanning out: their
  // function-local statics would otherwise be constructed under the init
  // guard inside the pool, serialising the first wave of workers.
  (void)workload::spec_profiles();
  (void)workload::irregular_profiles();
  (void)workload::splash_profiles();
  const std::vector<SweepJob> resolved = split_intra_budget(jobs, threads);
  std::vector<MixResult> out(resolved.size());
  parallel_for(
      0, resolved.size(),
      [&](std::size_t i) {
        const obs::prof::ScopedSpan job_span(obs::prof::Phase::kSweepJob, i);
        const SweepJob& j = resolved[i];
        out[i] = run_mix(j.cfg, j.mix, j.kind, j.opts,
                         observers.empty() ? nullptr : observers[i]);
      },
      threads);
  return out;
}

std::vector<std::vector<MixResult>> run_schemes(const MachineConfig& cfg,
                                                const std::vector<workload::Mix>& mixes,
                                                std::span<const SchemeKind> kinds,
                                                unsigned threads, SchemeOptions opts) {
  std::vector<SweepJob> jobs;
  jobs.reserve(mixes.size() * kinds.size());
  for (const workload::Mix& mix : mixes)
    for (SchemeKind kind : kinds) jobs.push_back(SweepJob{cfg, mix, kind, opts});
  const std::vector<MixResult> results = run_sweep(jobs, threads);
  std::vector<std::vector<MixResult>> out(mixes.size());
  for (std::size_t m = 0; m < mixes.size(); ++m)
    out[m].assign(results.begin() + static_cast<std::ptrdiff_t>(m * kinds.size()),
                  results.begin() +
                      static_cast<std::ptrdiff_t>((m + 1) * kinds.size()));
  return out;
}

workload::Mix mix_for_config(const MachineConfig& cfg, const std::string& mix_name) {
  const workload::Mix& base = workload::table4_mix(mix_name);
  if (cfg.cores == static_cast<int>(base.apps.size())) return base;
  if (cfg.cores == static_cast<int>(base.apps.size()) * 4)
    return workload::replicate4(base);
  throw std::invalid_argument("no mix replication rule for this core count");
}

}  // namespace delta::sim
