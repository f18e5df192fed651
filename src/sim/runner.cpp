#include "sim/runner.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "obs/prof/prof.hpp"
#include "workload/irregular.hpp"
#include "workload/spec.hpp"
#include "workload/splash.hpp"

namespace delta::sim {
namespace {

/// The sweep's thread budget (0 == hardware concurrency).
unsigned thread_budget(unsigned threads) {
  return threads == 0 ? hardware_threads() : threads;
}

/// How many threads parallel_for starts for `jobs` jobs: the budget, never
/// more than one per job.
unsigned outer_fanout(std::size_t jobs, unsigned threads) {
  return static_cast<unsigned>(std::min<std::size_t>(thread_budget(threads), jobs));
}

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
  const unsigned per_job = resolve_workers(
      0, thread_budget(threads) / std::max(1u, outer_fanout(jobs.size(), threads)));
  std::vector<SweepJob> resolved = jobs;
  for (SweepJob& j : resolved)
    if (j.cfg.intra_jobs == 0) j.cfg.intra_jobs = static_cast<int>(per_job);
  return resolved;
}

/// `apps` with mix_for_config's replication folded away: its shortest
/// prefix that repeats to the whole list.
std::vector<std::string> one_period(const std::vector<std::string>& apps) {
  const std::size_t n = apps.size();
  for (std::size_t p = 1; p < n; ++p)
    if (n % p == 0 && std::equal(apps.begin() + p, apps.end(), apps.begin()))
      return {apps.begin(), apps.begin() + static_cast<std::ptrdiff_t>(p)};
  return apps;
}

/// Each job's claim group, numbered by first appearance: jobs under one
/// seed that replay one mix at any replication (a 16-tile mix and its
/// 64-tile x4 copy) form a group.
std::vector<std::size_t> claim_groups(const std::vector<SweepJob>& jobs) {
  std::map<std::pair<std::uint64_t, std::vector<std::string>>, std::size_t> ids;
  std::vector<std::size_t> group(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    group[i] = ids.try_emplace({jobs[i].cfg.seed, one_period(jobs[i].mix.apps)}, ids.size())
                   .first->second;
  return group;
}

/// Each scheme's host cost per simulated epoch, in hundredths of a
/// millisecond: 16-tile w6 at --intra-jobs 1 on a 4-vCPU x86-64 host.
/// Only the ratios matter: claim_order scales it by tiles and epochs.
std::uint64_t epoch_cost(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kLfoc: return 86;
    case SchemeKind::kSnuca: return 75;
    case SchemeKind::kIdealCentralized: return 66;
    case SchemeKind::kCarma: return 62;
    case SchemeKind::kDelta: return 58;
    case SchemeKind::kPrivate: return 44;
  }
  return 0;
}

/// A job's estimated host cost: tiles x epochs x the scheme's epoch cost.
std::uint64_t job_cost(const SweepJob& j) {
  return static_cast<std::uint64_t>(j.cfg.cores) *
         static_cast<std::uint64_t>(j.cfg.warmup_epochs + j.cfg.measure_epochs) *
         epoch_cost(j.kind);
}

}  // namespace

std::vector<std::size_t> claim_order(const std::vector<SweepJob>& jobs) {
  const std::vector<std::size_t> group = claim_groups(jobs);
  std::vector<std::uint64_t> cost(jobs.size());
  std::transform(jobs.begin(), jobs.end(), cost.begin(), job_cost);
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return group[a] != group[b] ? group[a] < group[b] : cost[a] > cost[b];
  });
  return order;
}

MixResult run_mix(const MachineConfig& cfg, const workload::Mix& mix, SchemeKind kind,
                  SchemeOptions opts, obs::Observer* obs, EpochChecker* checker,
                  workload::StreamSet* streams) {
  if (static_cast<int>(mix.apps.size()) != cfg.cores)
    throw std::invalid_argument("mix size does not match core count");
  Chip chip(cfg, mix.apps, make_scheme(kind, opts), streams);
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
  // One stream set per claim group, so a stream's sharers are claimed
  // together and its chunks never wait for a later group.
  const std::vector<std::size_t> group = claim_groups(resolved);
  const std::size_t groups =
      group.empty() ? 0 : *std::max_element(group.begin(), group.end()) + 1;
  std::vector<std::vector<workload::StreamKey>> uses(groups);
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    const std::vector<workload::StreamKey> keys =
        Chip::stream_keys(resolved[i].cfg, resolved[i].mix.apps);
    uses[group[i]].insert(uses[group[i]].end(), keys.begin(), keys.end());
  }
  std::vector<workload::StreamSet> streams;
  streams.reserve(groups);
  for (const auto& u : uses) streams.emplace_back(u);
  const std::vector<std::size_t> order = claim_order(resolved);
  std::vector<MixResult> out(resolved.size());
  // One span over the whole fan-out, its arg the threads that run it: with
  // the sweep_job spans inside it, it gives the sweep's idle share.
  const obs::prof::ScopedSpan sweep_span(obs::prof::Phase::kSweep,
                                         outer_fanout(resolved.size(), threads));
  parallel_for(
      0, resolved.size(),
      [&](std::size_t k) {
        const std::size_t i = order[k];
        const obs::prof::ScopedSpan job_span(obs::prof::Phase::kSweepJob, i);
        const SweepJob& j = resolved[i];
        out[i] = run_mix(j.cfg, j.mix, j.kind, j.opts,
                         observers.empty() ? nullptr : observers[i], nullptr,
                         &streams[group[i]]);
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
