// White-box tests of the chip's timing model: interval accounting, MCU
// feedback, interleaving and traffic bookkeeping.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mem/address.hpp"
#include "sim/chip.hpp"
#include "sim/runner.hpp"

namespace delta::sim {
namespace {

MachineConfig tiny() {
  MachineConfig c = config16();
  c.warmup_epochs = 10;
  c.measure_epochs = 40;
  return c;
}

TEST(ChipInternals, CyclesAdvanceExactlyPerEpoch) {
  MachineConfig cfg = tiny();
  std::vector<std::string> apps(16, "po");
  Chip chip(cfg, apps, make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("t");
  for (const auto& a : r.apps) {
    EXPECT_EQ(chip.slot(a.core).cycles,
              static_cast<Cycles>(cfg.measure_epochs) * cfg.epoch_cycles);
  }
}

TEST(ChipInternals, InstructionsScaleInverselyWithCpi) {
  // A low-miss app must retire far more instructions than a thrasher with
  // similar apki in the same wall-clock window.
  MachineConfig cfg = tiny();
  std::vector<std::string> apps(16, "idle");
  apps[0] = "hm";  // ~5% misses at 512 KB.
  apps[1] = "li";  // ~100% misses.
  Chip chip(cfg, apps, make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("t");
  EXPECT_GT(r.apps[0].ipc, 1.5 * r.apps[1].ipc);
}

TEST(ChipInternals, HigherMlpHidesLatency) {
  // Same access stream, different MLP -> different IPC.  gamess (mlp 1.5)
  // vs zeusmp (mlp 2.5) differ, but we check the mechanism directly: the
  // measured avg latency contributes latency/mlp stalls.
  MachineConfig cfg = tiny();
  std::vector<std::string> apps(16, "idle");
  apps[0] = "le";
  Chip chip(cfg, apps, make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("t");
  const auto& ph = workload::spec_profile("le").phases.front();
  const double expected_cpi =
      ph.cpi_base + ph.apki / 1000.0 * r.apps[0].avg_latency / ph.mlp;
  EXPECT_NEAR(r.apps[0].cpi, expected_cpi, 0.05 * expected_cpi);
}

TEST(ChipInternals, MemoryTrafficMatchesMissCounts) {
  MachineConfig cfg = tiny();
  std::vector<std::string> apps(16, "ga");
  Chip chip(cfg, apps, make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("t");
  std::uint64_t misses = 0;
  for (const auto& a : r.apps) misses += a.llc_misses;
  EXPECT_EQ(r.traffic.total(noc::MsgType::kMemRequest), misses);
  EXPECT_EQ(r.traffic.total(noc::MsgType::kMemResponse), misses);
}

TEST(ChipInternals, LocalAccessesProduceNoNocDemandTraffic) {
  MachineConfig cfg = tiny();
  std::vector<std::string> apps(16, "po");  // Tiny working sets, ~no misses.
  Chip chip(cfg, apps, make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("t");
  EXPECT_EQ(r.traffic.total(noc::MsgType::kLlcRequest), 0u);
}

TEST(ChipInternals, SnucaRemoteAccessesCountLlcTraffic) {
  MachineConfig cfg = tiny();
  std::vector<std::string> apps(16, "po");
  Chip chip(cfg, apps, make_scheme(SchemeKind::kSnuca));
  const MixResult r = chip.run("t");
  EXPECT_GT(r.traffic.total(noc::MsgType::kLlcRequest), 0u);
  EXPECT_EQ(r.traffic.total(noc::MsgType::kLlcRequest),
            r.traffic.total(noc::MsgType::kLlcResponse));
}

TEST(ChipInternals, McuContentionRaisesLatencyUnderLoad) {
  // With a single memory channel, 16 thrashers overwhelm it (the paper's
  // 4-channel machine keeps them comfortably below saturation — verified
  // by the bounded latency in the 4-MCU configuration).
  MachineConfig cfg = tiny();
  cfg.num_mcus = 1;
  std::vector<std::string> alone(16, "idle");
  alone[0] = "bw";
  Chip a(cfg, alone, make_scheme(SchemeKind::kPrivate));
  const MixResult ra = a.run("alone");

  std::vector<std::string> crowd(16, "bw");
  Chip b(cfg, crowd, make_scheme(SchemeKind::kPrivate));
  const MixResult rb = b.run("crowd");
  EXPECT_GT(rb.apps[0].avg_latency, ra.apps[0].avg_latency + 100.0);

  // The paper's 4-channel configuration absorbs the same load.
  MachineConfig four = tiny();
  Chip c(four, crowd, make_scheme(SchemeKind::kPrivate));
  const MixResult rc = c.run("crowd4");
  EXPECT_LT(rc.apps[0].avg_latency, rb.apps[0].avg_latency);
}

TEST(ChipInternals, SeedChangesStreamsButNotScale) {
  MachineConfig cfg = tiny();
  MachineConfig cfg2 = tiny();
  cfg2.seed = cfg.seed + 1;
  std::vector<std::string> apps(16, "de");
  Chip a(cfg, apps, make_scheme(SchemeKind::kPrivate));
  Chip b(cfg2, apps, make_scheme(SchemeKind::kPrivate));
  const MixResult ra = a.run("a"), rb = b.run("b");
  EXPECT_NE(ra.apps[0].llc_misses, rb.apps[0].llc_misses);
  EXPECT_NEAR(ra.apps[0].ipc / rb.apps[0].ipc, 1.0, 0.05);
}

TEST(ChipInternals, PhasedAppsChangeBehaviourOverTime) {
  MachineConfig cfg = tiny();
  cfg.warmup_epochs = 0;
  std::vector<std::string> apps(16, "idle");
  apps[0] = "gc";  // 150-epoch phases.
  Chip chip(cfg, apps, make_scheme(SchemeKind::kPrivate));
  chip.run_epochs(10, false);
  const double cpi_early = chip.slot(0).cpi_est;
  // Advance beyond a phase boundary (offset is seed-dependent; cross
  // several boundaries to be sure).
  chip.run_epochs(300, false);
  double max_dev = 0.0;
  for (int i = 0; i < 30; ++i) {
    chip.run_epochs(10, false);
    max_dev = std::max(max_dev, std::abs(chip.slot(0).cpi_est - cpi_early));
  }
  EXPECT_GT(max_dev, 0.02 * cpi_early) << "phases never altered the CPI";
}

// MachineConfig::validate() runs in Chip's constructor: each bad field
// throws std::invalid_argument naming it, before any state is built.
void expect_rejected(const MachineConfig& cfg, const char* field) {
  try {
    Chip chip(cfg, std::vector<std::string>(static_cast<std::size_t>(cfg.cores), "po"),
              make_scheme(SchemeKind::kSnuca));
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(ChipInternals, ChunkSelectTableMatchesChunkOf) {
  // invalidate_core_chunks looks moved chunks up by the raw bank-select
  // byte; the table must name exactly the blocks whose chunk_of is in the
  // set, with the reversal folded in, and nothing else.
  Rng rng(5);
  for (const bool reverse : {true, false}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<int> chunks;
      std::vector<bool> in_set(mem::kNumChunks, false);
      for (int c = 0; c < mem::kNumChunks; ++c)
        if (rng.below(4) == 0) {
          chunks.push_back(c);
          in_set[static_cast<std::size_t>(c)] = true;
        }
      const auto table = Chip::chunk_select_table(chunks, reverse);
      for (const int sets_log2 : {6, 9, 11}) {
        for (int i = 0; i < 2000; ++i) {
          const BlockAddr block = rng() >> 24;
          EXPECT_EQ(table[mem::bank_select_byte(block, sets_log2)] != 0,
                    in_set[static_cast<std::size_t>(mem::chunk_of(block, sets_log2, reverse))])
              << "reverse " << reverse << " block " << block;
        }
      }
    }
  }
}

TEST(ChipConfig, RejectsNonPowerOfTwoTiles) {
  MachineConfig cfg = tiny();
  cfg.cores = 12;
  cfg.mesh_width = 4;
  cfg.mesh_height = 3;
  expect_rejected(cfg, "cores");
}

TEST(ChipConfig, RejectsMoreThan128Tiles) {
  MachineConfig cfg = tiny();
  cfg.cores = 256;
  cfg.mesh_width = 16;
  cfg.mesh_height = 16;
  expect_rejected(cfg, "cores");
}

TEST(ChipConfig, RejectsMeshThatDoesNotMatchTiles) {
  MachineConfig cfg = tiny();
  cfg.mesh_width = 8;
  expect_rejected(cfg, "mesh_width");
}

TEST(ChipConfig, RejectsWaysOutside1To16) {
  MachineConfig cfg = tiny();
  cfg.ways_per_bank = 17;
  expect_rejected(cfg, "ways_per_bank = 17: must be in [1, 16]");
  cfg.ways_per_bank = 0;
  expect_rejected(cfg, "ways_per_bank");
}

TEST(ChipConfig, RejectsSetsLog2OutOfRange) {
  MachineConfig cfg = tiny();
  cfg.sets_log2 = 0;
  expect_rejected(cfg, "sets_log2");
}

TEST(ChipConfig, RejectsMcuCount) {
  MachineConfig cfg = tiny();
  cfg.num_mcus = 0;
  expect_rejected(cfg, "num_mcus");
  cfg.num_mcus = 17;
  expect_rejected(cfg, "num_mcus");
}

TEST(ChipConfig, RejectsUmonMaxWays) {
  MachineConfig cfg = tiny();
  cfg.umon.max_ways = 0;
  expect_rejected(cfg, "umon.max_ways");
}

TEST(ChipConfig, RejectsUmonSetsLog2) {
  MachineConfig cfg = tiny();
  cfg.umon.sets_log2 = 21;
  expect_rejected(cfg, "umon.sets_log2");
}

TEST(ChipConfig, RejectsUmonSetDilution) {
  MachineConfig cfg = tiny();
  cfg.umon.set_dilution = 0;
  expect_rejected(cfg, "umon.set_dilution");
}

TEST(ChipConfig, RejectsUmonCoarseWays) {
  MachineConfig cfg = tiny();
  cfg.umon.coarse_ways = 0;
  expect_rejected(cfg, "umon.coarse_ways");
}

TEST(ChipConfig, RejectsAppListOfWrongLength) {
  try {
    Chip chip(tiny(), std::vector<std::string>(15, "po"),
              make_scheme(SchemeKind::kSnuca));
    ADD_FAILURE() << "accepted 15 apps for 16 cores";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("apps"), std::string::npos) << e.what();
  }
}

TEST(ChipConfig, AcceptsBothTableIIMachines) {
  EXPECT_NO_THROW(config16().validate());
  EXPECT_NO_THROW(config64().validate());
}

}  // namespace
}  // namespace delta::sim
