// Figure 6: fairness (ANTT) and throughput (STP) of DELTA vs. the ideal
// centralized scheme on the 16-core CMP.
//
// Paper result: DELTA trails the ideal scheme by ~2% in ANTT and ~5% in
// STP on average (lower ANTT = fairer, higher STP = more throughput).
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 6 — ANTT / STP, ideal centralized vs DELTA (16 cores)",
                      "Sec. IV-A, Fig. 6");

  const sim::MachineConfig cfg = sim::config16();
  TextTable table({"mix", "antt(ideal)", "antt(delta)", "stp(ideal)", "stp(delta)"});
  std::vector<double> antt_ratio, stp_ratio;

  const std::vector<std::string> names = bench::all_mix_names();
  const std::vector<std::vector<sim::MixResult>> comps =
      bench::run_comparisons(cfg, names, cli.jobs());
  for (std::size_t m = 0; m < names.size(); ++m) {
    const std::vector<sim::MixResult>& c = comps[m];
    const double ai = sim::antt(c[bench::kIdeal], c[bench::kPrivate]);
    const double ad = sim::antt(c[bench::kDelta], c[bench::kPrivate]);
    const double si = sim::stp(c[bench::kIdeal], c[bench::kPrivate]);
    const double sd = sim::stp(c[bench::kDelta], c[bench::kPrivate]);
    antt_ratio.push_back(ad / ai);
    stp_ratio.push_back(sd / si);
    table.add_row({names[m], fmt(ai, 3), fmt(ad, 3), fmt(si, 2), fmt(sd, 2)});
  }

  std::printf("\n%s\n", table.str().c_str());
  std::printf("delta vs ideal: ANTT %+0.1f%% (paper: +2%%, lower is better), "
              "STP %+0.1f%% (paper: -5%%, higher is better)\n",
              (geomean(antt_ratio) - 1.0) * 100.0,
              (geomean(stp_ratio) - 1.0) * 100.0);
  return 0;
}
