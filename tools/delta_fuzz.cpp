// delta_fuzz: deterministic seeded fuzzing of the simulator under the
// chip-wide invariant checker and the differential-scheme oracle.
//
//   delta_fuzz --seeds 25 --threads 2          # fuzz batch + determinism
//   delta_fuzz --repro 983378                  # re-run one failing seed
//   delta_fuzz --seeds 50 --out-dir fuzz-out   # write artifacts for CI
//
// Exit status is 0 only when every case is violation-free and the batch is
// reproducible byte-for-byte across thread counts, 1 when the fuzz found
// failures, and 2 on bad input, with one `delta_fuzz: <message>` line on
// stderr.  See docs/testing.md.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "common/abort_flush.hpp"
#include "common/args.hpp"
#include "obs/outputs.hpp"

namespace {

constexpr const char* kUsage = R"(delta_fuzz - invariant fuzz harness

Options:
  --seeds N           Number of fuzz cases (default 25).
  --seed-base S       First seed; case i uses S+i (default 983378).
  --threads N         Worker threads for the batch (default 1).
  --intra-jobs N      Access-engine threads inside each simulation
                      (default 1; 0 = hardware threads).  Byte-identical
                      at any value, so combined with the determinism check
                      this drives the engine's threading end to end.
  --repro SEED        Run exactly one seed, verbose, and exit.  Seeds
                      are decimal or 0x-prefixed hexadecimal.
  --sweep-interval N  Residency-sweep cadence in epochs (default 4, 0 = off).
  --out-dir DIR       Write summary JSON + per-failure reports into DIR.
  --no-differential   Skip the cross-scheme oracle.
  --no-determinism    Skip the 1-vs-N-thread byte-identity check.
  --prof-out F        Engine self-profiling flamegraph (Chrome trace JSON).
  --metrics-out F     Metrics dump (JSON).
  --help              This text.
)";

void print_case_failure(const delta::check::FuzzCaseResult& c) {
  std::printf("FAIL seed %llu (mix: %s): %zu violation(s)\n",
              static_cast<unsigned long long>(c.seed), c.mix_desc.c_str(),
              c.violations.size());
  for (const auto& v : c.violations)
    std::printf("  %s\n", delta::check::to_string(v).c_str());
}

void write_artifacts(const std::string& dir,
                     const delta::check::FuzzReport& report,
                     const delta::check::DeterminismReport& det,
                     bool det_checked) {
  std::filesystem::create_directories(dir);
  std::ofstream summary(dir + "/fuzz-summary.json");
  summary << "{\n  \"cases\": " << report.cases.size()
          << ",\n  \"failures\": " << report.failures
          << ",\n  \"deterministic\": "
          << (det_checked ? (det.ok ? "true" : "false") : "null")
          << ",\n  \"failing_seeds\": [";
  bool first = true;
  for (const auto& c : report.cases) {
    if (c.ok) continue;
    summary << (first ? "" : ", ") << c.seed;
    first = false;
  }
  summary << "]\n}\n";

  for (const auto& c : report.cases) {
    if (c.ok) continue;
    std::ofstream f(dir + "/seed-" + std::to_string(c.seed) + ".txt");
    f << "seed: " << c.seed << "\nmix: " << c.mix_desc << "\n\n";
    for (const auto& v : c.violations) f << delta::check::to_string(v) << "\n";
    f << "\n--- json summary ---\n" << c.json;
  }
  if (det_checked && !det.ok)
    std::ofstream(dir + "/determinism.txt") << det.detail << "\n";
}

}  // namespace

int run_cli(int argc, char** argv) {
  delta::ArgParser args(argc, argv);
  const std::vector<std::string> known = {
      "seeds",          "seed-base",      "threads",         "intra-jobs",
      "repro",          "sweep-interval", "out-dir",         "no-differential",
      "no-determinism", "prof-out",       "metrics-out",     "help"};
  if (const auto unknown = args.unknown_flags(known); !unknown.empty())
    throw std::invalid_argument("unknown flag: --" + unknown.front() + " (try --help)");
  if (!args.positional().empty())
    throw std::invalid_argument("unexpected argument '" + args.positional().front() + "'");
  args.reject_repeated();
  if (args.has_switch("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  delta::install_abort_flush();

  delta::check::FuzzOptions opt;
  opt.base_seed = args.get_u64("seed-base", 0xF0552);
  opt.cases = args.get_int_at_least("seeds", 25, 1);
  opt.threads = static_cast<unsigned>(args.get_int_at_least("threads", 1, 0));
  opt.intra_jobs = args.get_int_at_least("intra-jobs", 1, 0);
  opt.sweep_interval = args.get_int_at_least("sweep-interval", 4, 0);
  opt.differential = !args.has_switch("no-differential");
  const std::uint64_t repro_seed = args.get_u64("repro", 0);
  const std::string out_dir = args.get("out-dir");
  if (args.has("out-dir") && out_dir.empty())
    throw std::invalid_argument("--out-dir needs a directory path");

  // Self-profiling: same flag semantics as delta_sim and the benches.
  delta::obs::Outputs outputs(args);

  if (args.has("repro")) {
    const auto c = delta::check::run_fuzz_case(repro_seed, opt);
    std::printf("seed %llu mix: %s\n", static_cast<unsigned long long>(repro_seed),
                c.mix_desc.c_str());
    if (c.ok) {
      std::printf("OK: no violations\n");
    } else {
      print_case_failure(c);
    }
    return outputs.write(nullptr) && c.ok ? 0 : 1;
  }

  const delta::check::FuzzReport report = delta::check::run_fuzz(opt);
  for (const auto& c : report.cases)
    if (!c.ok) print_case_failure(c);
  std::printf("fuzz: %zu case(s), %d failure(s)\n", report.cases.size(),
              report.failures);

  delta::check::DeterminismReport det;
  const bool det_checked = !args.has_switch("no-determinism");
  if (det_checked) {
    // 1 worker vs the requested count: catches cross-thread divergence, and
    // (since each batch reruns every seed) run-to-run nondeterminism too.
    const unsigned many = opt.threads > 1 ? opt.threads : 2;
    det = delta::check::verify_determinism(opt, 1, many);
    if (det.ok)
      std::printf("determinism: OK (1 vs %u threads, byte-identical)\n", many);
    else
      std::printf("determinism: FAIL %s\n", det.detail.c_str());
  }

  if (args.has("out-dir")) write_artifacts(out_dir, report, det, det_checked);

  const bool io_ok = outputs.write(nullptr);
  return report.ok() && (!det_checked || det.ok) && io_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  // Top-level error boundary: bad input (and any other escaping exception)
  // ends with one clear line and exit code 2, never an abort.  Exit 1 stays
  // reserved for "the fuzz found failures".
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "delta_fuzz: %s\n", e.what());
    return 2;
  }
}
