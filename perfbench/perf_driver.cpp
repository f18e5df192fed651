// Host-cost benchmark driver (perfbench/run.py builds and runs it): times
// whole simulations of one fixed workload, checks their results, and with
// --trace 1 arms the engine's own profiler to split the time by layer.
//
//   perf_driver --workload sweep16|delta64 --seed N
//               --seconds S --trace 0|1 [--trace-out prof.json]
//
// The last line of stdout is one JSON object: correct / attempted / failed
// plus the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "obs/export.hpp"
#include "obs/prof/export.hpp"
#include "obs/prof/prof.hpp"
#include "sim/chip.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;
namespace prof = obs::prof;

/// A fixed machine, mix and scheme set.  One unit of work is one run_sweep
/// over `kinds`: the inner sweep of a figure harness (sweep16) or one
/// delta_sim run (delta64).  --seed reseeds only the simulated
/// access streams, so a unit costs about the same on every seed.
struct Workload {
  const char* name;
  int cores;
  const char* mix;
  std::vector<sim::SchemeKind> kinds;
  unsigned sweep_threads;  ///< Threads the unit's runs fan out over.
  int intra_jobs;          ///< Epoch-engine threads inside each run.
  int warmup_epochs;
  int measure_epochs;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      // All six schemes on the mix holding every application class, fanned
      // over two threads: scheme policies and sweep fan-out.
      {"sweep16", 16, "w6",
       {sim::kAllSchemeKinds.begin(), sim::kAllSchemeKinds.end()}, 2, 1, 10, 20},
      // The 64-tile machine under DELTA on the two-thread intra engine:
      // stage/apply/reduce, and challenge traffic on the large mesh.
      {"delta64", 64, "w13", {sim::SchemeKind::kDelta}, 1, 2, 5, 10},
  };
  return w;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<sim::SweepJob> make_jobs(const Workload& w, std::uint64_t seed,
                                     int intra_jobs) {
  sim::MachineConfig cfg = w.cores == 64 ? sim::config64() : sim::config16();
  cfg.warmup_epochs = w.warmup_epochs;
  cfg.measure_epochs = w.measure_epochs;
  cfg.seed = seed;
  cfg.intra_jobs = intra_jobs;
  const workload::Mix mix = sim::mix_for_config(cfg, w.mix);
  std::vector<sim::SweepJob> jobs;
  for (const sim::SchemeKind k : w.kinds) jobs.push_back(sim::SweepJob{cfg, mix, k, {}});
  return jobs;
}

/// Every run measured the configured window, and every core (no mix here
/// has an idle one) issued accesses at a finite, positive IPC.
bool plausible(const Workload& w, const std::vector<sim::MixResult>& rs) {
  if (rs.size() != w.kinds.size()) return false;
  for (const sim::MixResult& r : rs) {
    if (r.measured_epochs != static_cast<std::uint64_t>(w.measure_epochs) ||
        r.apps.size() != static_cast<std::size_t>(w.cores) ||
        !(std::isfinite(r.geomean_ipc) && r.geomean_ipc > 0.0))
      return false;
    for (const sim::AppResult& a : r.apps)
      if (a.llc_accesses == 0 || a.llc_misses > a.llc_accesses ||
          !(std::isfinite(a.ipc) && a.ipc > 0.0))
        return false;
  }
  return true;
}

struct UnitCounts {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t control = 0;
};

UnitCounts count(const std::vector<sim::MixResult>& rs) {
  UnitCounts c;
  for (const sim::MixResult& r : rs) {
    for (const sim::AppResult& a : r.apps) {
      c.accesses += a.llc_accesses;
      c.hits += a.llc_accesses - a.llc_misses;
    }
    c.control += r.control.total();
  }
  return c;
}

/// One set-up: bring every chip of a unit to its first measured epoch, on
/// one thread — construction (banks, monitors, stream generators, scheme
/// state, intra worker pool) plus the warm-up epochs that fill the caches.
/// Tear-down happens after the clock stops.
double setup_seconds(const std::vector<sim::SweepJob>& jobs) {
  std::vector<std::unique_ptr<sim::Chip>> chips;
  chips.reserve(jobs.size());
  const auto t0 = Clock::now();
  for (const sim::SweepJob& j : jobs) {
    chips.push_back(
        std::make_unique<sim::Chip>(j.cfg, j.mix.apps, sim::make_scheme(j.kind, j.opts)));
    chips.back()->run_epochs(j.cfg.warmup_epochs, /*measuring=*/false);
  }
  return seconds_since(t0);
}

/// Profiler totals over the timed units, in nanoseconds.
struct LayerTotals {
  double epoch = 0, policy = 0, accounting = 0, access_work = 0;

  void add(const prof::ProfSnapshot& s) {
    const auto phase = [&](prof::Phase p) { return static_cast<double>(s.phase_ns(p)); };
    const auto site = [&](prof::Site x) {
      return static_cast<double>(s.sites[static_cast<std::size_t>(x)].ns);
    };
    epoch += phase(prof::Phase::kEpoch);
    policy += phase(prof::Phase::kPolicy);
    accounting += phase(prof::Phase::kAccounting);
    // Thread time doing access work, waits excluded: the serial engine's
    // batches, or the intra engine's stage/apply/reduce task bodies.
    access_work += site(prof::Site::kAccessBatch) + site(prof::Site::kStageCore) +
                   site(prof::Site::kApplyBank) + site(prof::Site::kReduceCore);
  }
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string j = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    j += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
         "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
}

int run(const ArgParser& args) {
  const std::string name = args.get("workload");
  const Workload* w = nullptr;
  for (const Workload& cand : workloads())
    if (name == cand.name) w = &cand;
  const std::int64_t seed = args.get_int("seed", -1);
  const double seconds = args.get_double("seconds", 0.0);
  const std::int64_t trace = args.get_int("trace", -1);
  if (w == nullptr || seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perf_driver --workload sweep16|delta64 "
                 "--seed N --seconds S --trace 0|1 [--trace-out prof.json]\n");
    return 2;
  }

  prof::init_clock();
  prof::set_level(prof::ProfLevel::kOff);
  const std::vector<sim::SweepJob> jobs =
      make_jobs(*w, static_cast<std::uint64_t>(seed), w->intra_jobs);

  // Untimed warm unit (allocator, page cache, profile registries).  Its
  // results are the reference every later unit must reproduce exactly.
  const std::vector<sim::MixResult> first = sim::run_sweep(jobs, w->sweep_threads);
  const std::string reference = sim::json_summary(first);
  const UnitCounts counts = count(first);
  std::uint64_t attempted = 1;
  std::uint64_t failed = plausible(*w, first) ? 0 : 1;

  std::vector<double> setups;
  if (trace == 0) {
    constexpr int kSetups = 15;
    for (int i = 0; i < kSetups; ++i) setups.push_back(setup_seconds(jobs));
  } else {
    prof::Profiler::instance().clear();
    prof::set_level(prof::ProfLevel::kFull);
  }

  // Timed loop: whole units until --seconds have passed (at least three).
  std::vector<double> unit_s;
  std::vector<double> rate;
  LayerTotals layers;
  prof::ProfSnapshot last_unit;
  const auto loop_start = Clock::now();
  while (unit_s.size() < 3 || seconds_since(loop_start) < seconds) {
    const auto t0 = Clock::now();
    const std::vector<sim::MixResult> rs = sim::run_sweep(jobs, w->sweep_threads);
    const double dt = seconds_since(t0);
    unit_s.push_back(dt);
    rate.push_back(static_cast<double>(count(rs).accesses) / dt);
    ++attempted;
    if (!plausible(*w, rs) || sim::json_summary(rs) != reference) ++failed;
    if (trace == 1) {
      last_unit = prof::Profiler::instance().snapshot();
      prof::Profiler::instance().clear();
      layers.add(last_unit);
    }
  }
  prof::set_level(prof::ProfLevel::kOff);
  if (trace == 1 && args.has("trace-out") &&
      !obs::write_text_file(args.get("trace-out"), prof::prof_trace_json(last_unit))) {
    std::perror(("writing " + args.get("trace-out")).c_str());
    return 2;
  }

  // Results are thread-count-independent by contract: the same unit run
  // fully serial must reproduce the reference byte for byte.
  {
    const std::vector<sim::MixResult> rs =
        sim::run_sweep(make_jobs(*w, static_cast<std::uint64_t>(seed), 1), 1);
    ++attempted;
    if (!plausible(*w, rs) || sim::json_summary(rs) != reference) ++failed;
  }

  const double units = static_cast<double>(unit_s.size());
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {{"run_ms", median(unit_s) * 1e3, "ms"},
               {"accesses_per_s", median(rate), "1/s"},
               {"setup_s", median(setups), "s"}};
  } else {
    double wall_ns = 0;
    for (const double t : unit_s) wall_ns += t * 1e9;
    const double fanout =
        std::min<double>(w->sweep_threads, static_cast<double>(jobs.size()));
    const double access_wall = layers.epoch - layers.policy - layers.accounting;
    const double ms_per_unit = 1e-6 / units;
    metrics = {
        {"traced_run_ms", median(unit_s) * 1e3, "ms"},
        {"epoch_ms", layers.epoch * ms_per_unit, "ms"},
        {"policy_ms", layers.policy * ms_per_unit, "ms"},
        {"access_ms", access_wall * ms_per_unit, "ms"},
        {"accounting_ms", layers.accounting * ms_per_unit, "ms"},
        {"access_work_ms", layers.access_work * ms_per_unit, "ms"},
        // Share of the access threads' time spent on access work rather
        // than waiting at barriers, in the serial tail or on claims.
        {"access_busy_share",
         layers.access_work / (access_wall * static_cast<double>(w->intra_jobs)),
         "ratio"},
        // Thread time of the unit not spent inside an epoch: chip set-up and
        // tear-down, result collection, idle fan-out threads.
        {"unattributed_ms", (wall_ns * fanout - layers.epoch) * ms_per_unit, "ms"},
        {"host_ns_per_access",
         layers.access_work / (units * static_cast<double>(counts.accesses)), "ns"},
        {"llc_accesses", static_cast<double>(counts.accesses), "count"},
        {"llc_hit_ratio",
         static_cast<double>(counts.hits) / static_cast<double>(counts.accesses), "ratio"},
        {"control_msgs", static_cast<double>(counts.control), "count"},
    };
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::vector<std::string> known = {"workload", "seed", "seconds", "trace",
                                          "trace-out"};
  for (const std::string& f : args.unknown_flags(known)) {
    std::fprintf(stderr, "unknown flag: --%s\n", f.c_str());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_driver: %s\n", e.what());
    return 2;
  }
}
