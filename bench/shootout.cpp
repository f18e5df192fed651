// Scheme shootout: all six partitioning schemes (snuca, private,
// ideal-central, delta, carma, lfoc) on every Table IV mix, at both machine
// sizes.  Not a paper figure — this is the literature-comparison harness
// that pits DELTA against the market-based (CARMA) and fairness-clustering
// (LFOC) allocator families under identical workloads, reporting throughput
// (speedup vs unpartitioned S-NUCA), fairness (ANTT) and throughput-sum
// (STP) vs the private baseline, and the control-plane traffic each scheme
// pays for its decisions.
//
// Usage: shootout [--jobs N] [--quick] [--out FILE]
//   --quick shortens the measured window and drops to a mix subset (the CI
//   protocol); --out writes the same report to FILE for artifact upload.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace delta;

struct SchemeAgg {
  std::vector<double> speedups;     // vs snuca, per mix.
  std::vector<double> antts;        // vs private, per mix.
  std::vector<double> stps;         // vs private, per mix.
  std::uint64_t control = 0;        // Control-plane messages, all mixes.
  std::uint64_t demand = 0;         // Demand messages, all mixes.
};

void shootout_at(const sim::MachineConfig& base, const char* title,
                 const std::vector<std::string>& names, bool quick,
                 unsigned jobs, std::string& report) {
  sim::MachineConfig cfg = base;
  if (quick) {
    cfg.warmup_epochs = 5;
    cfg.measure_epochs = 15;
  }
  std::vector<workload::Mix> mixes;
  for (const std::string& n : names) mixes.push_back(sim::mix_for_config(cfg, n));

  const auto rs = sim::run_schemes(cfg, mixes, sim::kAllSchemeKinds, jobs);

  // Per-mix table: speedup over unpartitioned S-NUCA (snuca == 1.000).
  TextTable table({"mix", "private", "ideal", "delta", "carma", "lfoc"});
  std::vector<SchemeAgg> agg(sim::kAllSchemeKinds.size());
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const std::vector<sim::MixResult>& r = rs[m];
    const sim::MixResult& snuca = r[0];
    const sim::MixResult& priv = r[1];
    std::vector<std::string> row = {names[m]};
    for (std::size_t k = 0; k < r.size(); ++k) {
      agg[k].speedups.push_back(sim::speedup(r[k], snuca));
      agg[k].antts.push_back(sim::antt(r[k], priv));
      agg[k].stps.push_back(sim::stp(r[k], priv));
      agg[k].control += r[k].control.total();
      agg[k].demand += r[k].traffic.demand_messages();
      if (k > 0) row.push_back(fmt(agg[k].speedups.back(), 3));
    }
    table.add_row(row);
  }

  report += "\n== ";
  report += title;
  report += " ==\nSpeedup over unpartitioned S-NUCA (1.000 = parity):\n";
  report += table.str();

  // Per-scheme summary: geomean throughput, fairness, control overhead.
  TextTable sum({"scheme", "speedup", "antt", "stp", "ctl msgs", "ctl/demand"});
  for (std::size_t k = 0; k < sim::kAllSchemeKinds.size(); ++k) {
    std::vector<double> sp = agg[k].speedups, an = agg[k].antts,
                        st = agg[k].stps;
    const double ratio =
        agg[k].demand > 0
            ? 100.0 * static_cast<double>(agg[k].control) /
                  static_cast<double>(agg[k].demand)
            : 0.0;
    sum.add_row({std::string(sim::to_string(sim::kAllSchemeKinds[k])),
                 fmt(geomean(sp), 3), fmt(geomean(an), 3), fmt(geomean(st), 2),
                 std::to_string(agg[k].control), fmt(ratio, 3) + "%"});
  }
  report += "\nPer-scheme summary (ANTT lower / STP higher is better; "
            "geomeans across mixes):\n";
  report += sum.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {"out", "quick"});
  const std::string out_path = cli.get("out");
  const bool quick = cli.has("quick");
  const unsigned jobs = cli.jobs();
  bench::print_header("Scheme shootout — DELTA vs CARMA vs LFOC (+3 baselines)",
                      "literature comparison (docs/schemes.md)");

  // Table IV mixes plus the irregular-access family: the flat-miss-curve
  // kernels are exactly where the allocator families disagree the most.
  std::vector<std::string> names = bench::all_mix_names();
  if (quick) names.resize(names.size() < 6 ? names.size() : 6);
  const std::vector<std::string> irregular = bench::irregular_mix_names();
  names.insert(names.end(), irregular.begin(),
               quick ? irregular.begin() + 1 : irregular.end());

  std::string report;
  shootout_at(sim::config16(), "16 tiles", names, quick, jobs, report);
  shootout_at(sim::config64(), "64 tiles", names, quick, jobs, report);

  std::printf("%s\n", report.c_str());
  if (!out_path.empty()) {
    if (!obs::write_text_file(out_path, report))
      std::perror(("writing " + out_path).c_str());
    else
      std::printf("report written to %s\n", out_path.c_str());
  }
  return 0;
}
