// Visualize DELTA's distributed allocation converging: an ASCII map of
// per-bank way ownership over time for a 16-core chip where one
// cache-hungry application (mcf) runs among small-footprint neighbours and
// two idle tiles.
//
//   $ ./challenge_trace
//
// Shows the inter-bank challenge expansion (including the idle-bank fast
// path) and the intra-bank fine-tuning the paper describes in Sec. II-D.
#include <bit>
#include <cstdio>

#include "sim/chip.hpp"
#include "sim/runner.hpp"

namespace {

using namespace delta;

void print_ownership(sim::Chip& chip) {
  // For each bank, how many ways core 0 may insert into.
  std::printf("  bank:        ");
  for (int b = 0; b < chip.cores(); ++b) std::printf("%3d", b);
  std::printf("\n  mcf@0 ways:  ");
  for (int b = 0; b < chip.cores(); ++b)
    std::printf("%3d", std::popcount(chip.plan().mask(0, b)));
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace delta;
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 0;
  cfg.measure_epochs = 0;

  std::vector<std::string> apps = {"mc", "po", "sj", "na", "ze", "hm", "ga", "gr",
                                   "idle", "po", "sj", "idle", "ga", "hm", "gr", "po"};
  sim::Chip chip(cfg, apps, sim::make_scheme(sim::SchemeKind::kDelta));

  std::printf("mcf on tile 0 among small-footprint apps; tiles 8 and 11 idle.\n");
  std::printf("Ways owned by tile 0 (mcf) in every bank, epoch by epoch:\n\n");
  for (int step = 0; step < 12; ++step) {
    std::printf("epoch %3d (t=%4.1f ms), mcf total ways = %d\n",
                static_cast<int>(chip.epoch()),
                static_cast<double>(chip.epoch()) * 0.1,
                chip.scheme().allocated_ways(chip, 0));
    print_ownership(chip);
    chip.run_epochs(10, /*measuring=*/false);  // One inter-bank interval.
  }
  std::printf("\nfinal: mcf holds %d ways (%.1f MB); control messages shown by "
              "quickstart.\n",
              chip.scheme().allocated_ways(chip, 0),
              chip.scheme().allocated_ways(chip, 0) * 32.0 / 1024.0);
  return 0;
}
