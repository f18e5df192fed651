// delta_sim — command-line driver for arbitrary partitioning experiments.
//
//   delta_sim --mix w2 --scheme all                    # 16-core, all schemes
//   delta_sim --cores 64 --mix w13 --scheme delta
//   delta_sim --mix w6 --scheme delta --epochs 600 --warmup 100 --csv
//   delta_sim --apps "mc,po,xa,na,ze,hm,ga,gr,li,de,om,bw,so,ca,pe,Ge"
//   delta_sim --mix w2 --scheme ideal --central-ms 100  # Fig. 13 style
//   delta_sim --mix w2 --scheme delta --trace-out t.json  # Perfetto trace
//   delta_sim --mix w2 --scheme all --timeline-csv tl.csv --json summary.json
//   delta_sim --list                                    # apps and mixes
//
// Prints per-application and workload-level results; `--csv` switches to a
// machine-readable format for scripting sweeps.  The observability flags
// (--json / --timeline-csv / --trace-out / --prof-out / --metrics-out) are
// documented in docs/observability.md.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/abort_flush.hpp"
#include "common/args.hpp"
#include "common/parallel.hpp"
#include "obs/observer.hpp"
#include "obs/outputs.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/irregular.hpp"
#include "workload/mixes.hpp"
#include "workload/spec.hpp"

namespace {

using namespace delta;

void list_everything() {
  std::printf("applications (Table III):\n");
  for (const auto& p : workload::spec_profiles())
    std::printf("  %-4s %-12s class %-2s\n", p.short_name.c_str(), p.name.c_str(),
                to_string(p.cls).c_str());
  std::printf("\napplications (irregular family):\n");
  for (const auto& p : workload::irregular_profiles())
    std::printf("  %-4s %-12s class %-2s\n", p.short_name.c_str(), p.name.c_str(),
                to_string(p.cls).c_str());
  std::printf("\nmixes (Table IV):\n");
  for (const auto& m : workload::table4_mixes()) {
    std::printf("  %-4s (%s): ", m.name.c_str(), m.composition.c_str());
    for (const auto& a : m.apps) std::printf("%s ", a.c_str());
    std::printf("\n");
  }
  std::printf("\nmixes (irregular):\n");
  for (const auto& m : workload::irregular_mixes()) {
    std::printf("  %-4s (%s): ", m.name.c_str(), m.composition.c_str());
    for (const auto& a : m.apps) std::printf("%s ", a.c_str());
    std::printf("\n");
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

void print_result(const sim::MixResult& r, const sim::MixResult* baseline, bool csv,
                  std::FILE* text_out) {
  if (csv) {
    std::fputs(sim::csv_rows(r).c_str(), stdout);
    return;
  }
  std::fputs(sim::text_report(r, baseline).c_str(), text_out);
}

}  // namespace

int run_cli(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::vector<std::string> known = {
      "mix",        "apps",         "scheme",   "cores",       "epochs",
      "warmup",     "seed",         "csv",      "list",        "central-ms",
      "trace-out",  "timeline-csv", "json",     "jobs",        "intra-jobs",
      "prof-out",   "metrics-out",  "help",     "interleave-batch",
  };
  if (const std::vector<std::string> unknown = args.unknown_flags(known);
      !unknown.empty())
    throw std::invalid_argument("unknown flag: --" + unknown.front() + " (try --help)");
  if (!args.positional().empty())
    throw std::invalid_argument("unexpected argument '" + args.positional().front() + "'");
  args.reject_repeated();
  if (args.has_switch("help")) {
    std::fprintf(stderr,
                 "usage: delta_sim [--mix wN | --apps a,b,...] [--scheme "
                 "snuca|private|ideal-central|delta|carma|lfoc|all]\n"
                 "                 [--cores 16|64] [--epochs N] [--warmup N] "
                 "[--seed S] [--central-ms M] [--csv] [--list]\n"
                 "                 [--trace-out trace.json] [--timeline-csv ts.csv]\n"
                 "                 [--json [summary.json]]\n"
                 "                 [--jobs N]   (parallel scheme fan-out for "
                 "--scheme all; 0 = all hw threads)\n"
                 "                 [--intra-jobs N]   (threads inside each "
                 "simulation; 0 = auto;\n"
                 "                                     byte-identical results "
                 "at any value)\n"
                 "                 [--interleave-batch N]   (accesses per core "
                 "per round; 0 = default 16;\n"
                 "                                           changes results, "
                 "the same at every --intra-jobs)\n"
                 "                 [--prof-out prof.json]   (engine "
                 "self-profiling flamegraph, Chrome trace format)\n"
                 "                 [--metrics-out m.json]   (metrics dump, "
                 "JSON)\n");
    return 0;
  }
  if (args.has_switch("list")) {
    list_everything();
    return 0;
  }

  // Buffered report output survives an abort mid-run.
  install_abort_flush();

  const std::int64_t cores = args.get_int("cores", 16);
  if (cores != 16 && cores != 64)
    throw std::invalid_argument("--cores must be 16 or 64, got " +
                                std::to_string(cores));
  sim::MachineConfig cfg = cores == 64 ? sim::config64() : sim::config16();
  cfg.measure_epochs = args.get_int_at_least("epochs", cfg.measure_epochs, 1);
  cfg.warmup_epochs = args.get_int_at_least("warmup", cfg.warmup_epochs, 0);
  cfg.seed = args.get_u64("seed", cfg.seed);
  // Intra-run engine threads (sim/intra.hpp): results are byte-identical at
  // any value, so this is safe to combine with every other flag.
  cfg.intra_jobs = args.get_int_at_least("intra-jobs", 1, 0);
  // Part of the determinism contract: changing the batch changes results,
  // but every --intra-jobs value agrees at any given batch.
  cfg.interleave_batch =
      static_cast<std::uint32_t>(args.get_int_at_least("interleave-batch", 0, 0));

  workload::Mix mix;
  if (args.has("apps")) {
    mix.name = "custom";
    mix.apps = split_csv(args.get("apps"));
    if (static_cast<int>(mix.apps.size()) != cfg.cores) {
      std::fprintf(stderr, "delta_sim: --apps needs exactly %d entries\n", cfg.cores);
      return 1;
    }
    for (const auto& a : mix.apps) {
      if (!workload::has_spec_profile(a) && a != "idle") {
        std::fprintf(stderr, "delta_sim: unknown app '%s' (try --list)\n", a.c_str());
        return 1;
      }
    }
  } else {
    try {
      mix = sim::mix_for_config(cfg, args.get("mix", "w2"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "delta_sim: %s (try --list)\n", e.what());
      return 1;
    }
  }

  // One epoch is 0.1 ms: the interval must span at least one epoch and its
  // epoch count must fit an int.
  const double central_ms = args.get_double("central-ms", 1.0);
  if (!(central_ms * 10 >= 1.0))
    throw std::invalid_argument("--central-ms must be >= 0.1 (one epoch), got " +
                                args.get("central-ms"));
  if (central_ms * 10 > std::numeric_limits<int>::max())
    throw std::invalid_argument("--central-ms is out of range, got " +
                                args.get("central-ms"));
  sim::SchemeOptions opts;
  opts.central_interval_epochs = static_cast<int>(central_ms * 10);

  // --scheme takes the name the report prints (sim::to_string), plus the
  // short alias "ideal" for ideal-central; "all" runs the six of them,
  // printed against the snuca baseline with ANTT/STP fairness vs private.
  const std::string scheme = args.get("scheme", "all");
  std::vector<sim::SweepJob> jobs;
  for (const sim::SchemeKind kind : sim::kAllSchemeKinds)
    if (scheme == "all" || scheme == sim::to_string(kind) ||
        (scheme == "ideal" && kind == sim::SchemeKind::kIdealCentralized))
      jobs.push_back(sim::SweepJob{cfg, mix, kind, opts});
  if (jobs.empty()) throw std::invalid_argument("unknown scheme '" + scheme + "'");

  // --jobs N fans the --scheme all runs over N threads (0 = every hardware
  // thread); results are byte-identical to the one-thread default.  With one
  // run at a time, auto --intra-jobs keeps every hardware thread instead of
  // the budget run_sweep would split off a one-thread fan-out.
  const unsigned threads = static_cast<unsigned>(args.get_int_at_least("jobs", 1, 0));
  if (threads == 1 || jobs.size() == 1)
    for (sim::SweepJob& j : jobs)
      if (j.cfg.intra_jobs == 0) j.cfg.intra_jobs = static_cast<int>(hardware_threads());

  // Every output file is open and the profiler armed before the first
  // chip is built, so each span of the run lands in the same timeline.
  obs::Outputs outputs(args);

  // With observability outputs each run records into its own observer and
  // the per-run traces are merged back in scheme order — run-major, which
  // is exactly the order a serial observed execution emits (nothing in a
  // trace carries wall time), so the exported files match at any --jobs.
  std::unique_ptr<obs::Observer> observer;
  std::vector<std::unique_ptr<obs::Observer>> job_obs;
  std::vector<obs::Observer*> job_obs_ptrs;
  if (const std::optional<obs::ObsLevel> level = outputs.observer_level()) {
    observer = std::make_unique<obs::Observer>(*level);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      job_obs.push_back(std::make_unique<obs::Observer>(*level));
      job_obs_ptrs.push_back(job_obs.back().get());
    }
  }
  const std::vector<sim::MixResult> results = sim::run_sweep(jobs, threads, job_obs_ptrs);
  for (const auto& jo : job_obs) observer->merge_from(*jo);

  const bool csv = args.has_switch("csv");
  // JSON on stdout must stay parseable, so the human report yields to stderr.
  std::FILE* text_out = outputs.summary_on_stdout() ? stderr : stdout;
  if (csv) std::printf("%s\n", sim::csv_header().c_str());
  const sim::MixResult* baseline = results.size() > 1 ? &results[0] : nullptr;
  for (const sim::MixResult& r : results) print_result(r, baseline, csv, text_out);
  if (results.size() > 1 && !csv) {
    const std::vector<sim::MixResult>& r = results;
    std::fprintf(text_out,
                 "\nANTT/STP vs private: ideal %.3f/%.2f, delta %.3f/%.2f, "
                 "carma %.3f/%.2f, lfoc %.3f/%.2f\n",
                 sim::antt(r[2], r[1]), sim::stp(r[2], r[1]),
                 sim::antt(r[3], r[1]), sim::stp(r[3], r[1]),
                 sim::antt(r[4], r[1]), sim::stp(r[4], r[1]),
                 sim::antt(r[5], r[1]), sim::stp(r[5], r[1]));
  }

  bool io_ok = outputs.write(observer.get());
  if (args.has("json"))
    io_ok &= outputs.write_summary(sim::json_summary(results, observer.get()));
  return io_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  // Top-level error boundary: bad input (and any other escaping exception)
  // ends with one clear line and exit code 1, never an abort.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "delta_sim: %s\n", e.what());
    return 1;
  }
}
