#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/address.hpp"
#include "sim/chip.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"

namespace delta::sim {
namespace {

MachineConfig tiny_config() {
  MachineConfig c = config16();
  c.warmup_epochs = 20;
  c.measure_epochs = 60;
  return c;
}

std::vector<std::string> simple_apps() {
  return {"mc", "po", "sj", "na", "ze", "hm", "ga", "gr",
          "po", "sj", "na", "ze", "hm", "ga", "gr", "po"};
}

TEST(Chip, RunsAndProducesPlausibleIpc) {
  MachineConfig cfg = tiny_config();
  Chip chip(cfg, simple_apps(), make_scheme(SchemeKind::kSnuca));
  const MixResult r = chip.run("smoke");
  ASSERT_EQ(r.apps.size(), 16u);
  for (const auto& a : r.apps) {
    EXPECT_GT(a.ipc, 0.05) << a.app;
    EXPECT_LT(a.ipc, 4.0) << a.app;
    EXPECT_GT(a.instructions, 0u);
  }
  EXPECT_GT(r.geomean_ipc, 0.0);
}

TEST(Chip, DeterministicAcrossRuns) {
  MachineConfig cfg = tiny_config();
  Chip a(cfg, simple_apps(), make_scheme(SchemeKind::kDelta));
  Chip b(cfg, simple_apps(), make_scheme(SchemeKind::kDelta));
  const MixResult ra = a.run("x");
  const MixResult rb = b.run("x");
  for (std::size_t i = 0; i < ra.apps.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.apps[i].ipc, rb.apps[i].ipc);
}

TEST(Chip, IdleCoresStayIdle) {
  MachineConfig cfg = tiny_config();
  std::vector<std::string> apps = simple_apps();
  apps[3] = "idle";
  Chip chip(cfg, apps, make_scheme(SchemeKind::kSnuca));
  const MixResult r = chip.run("idle-test");
  EXPECT_EQ(r.apps[3].instructions, 0u);
  EXPECT_EQ(r.apps[3].ipc, 0.0);
}

TEST(Chip, PrivateSchemeKeepsAccessesLocal) {
  MachineConfig cfg = tiny_config();
  Chip chip(cfg, simple_apps(), make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("private");
  for (const auto& a : r.apps) EXPECT_DOUBLE_EQ(a.avg_hops, 0.0);
}

TEST(Chip, SnucaSpreadsAccessesAcrossBanks) {
  MachineConfig cfg = tiny_config();
  Chip chip(cfg, simple_apps(), make_scheme(SchemeKind::kSnuca));
  const MixResult r = chip.run("snuca");
  double hops = 0.0;
  for (const auto& a : r.apps) hops += a.avg_hops;
  EXPECT_GT(hops / 16.0, 1.5);  // Mean NoC distance on a 4x4 mesh.
}

TEST(Chip, DeltaReducesDistanceVsSnuca) {
  MachineConfig cfg = tiny_config();
  Chip snuca(cfg, simple_apps(), make_scheme(SchemeKind::kSnuca));
  Chip delta(cfg, simple_apps(), make_scheme(SchemeKind::kDelta));
  const MixResult rs = snuca.run("m");
  const MixResult rd = delta.run("m");
  double hs = 0.0, hd = 0.0;
  for (const auto& a : rs.apps) hs += a.avg_hops;
  for (const auto& a : rd.apps) hd += a.avg_hops;
  EXPECT_LT(hd, hs * 0.6) << "DELTA should keep data much closer than S-NUCA";
}

TEST(Chip, CacheHungryAppGrowsUnderDelta) {
  MachineConfig cfg = tiny_config();
  cfg.measure_epochs = 120;
  Chip chip(cfg, simple_apps(), make_scheme(SchemeKind::kDelta));
  const MixResult r = chip.run("growth");
  // Core 0 runs mcf (5 MB appetite) among content apps: it must have
  // expanded well beyond its 16-way home bank.
  EXPECT_GT(r.apps[0].avg_ways, 20.0);
}

TEST(Chip, BulkInvalidationRemovesExactlyMatchingLines) {
  MachineConfig cfg = tiny_config();
  Chip chip(cfg, simple_apps(), make_scheme(SchemeKind::kPrivate));
  chip.run_epochs(5, false);
  // Invalidate all of core 2's chunks in its home bank.
  std::vector<int> all_chunks(mem::kNumChunks);
  for (int i = 0; i < mem::kNumChunks; ++i) all_chunks[i] = i;
  const std::uint64_t owned = chip.bank(2).lines_owned_by(2);
  ASSERT_GT(owned, 0u);
  const std::uint64_t dropped = chip.invalidate_core_chunks(2, 2, all_chunks);
  EXPECT_EQ(dropped, owned);
  EXPECT_EQ(chip.bank(2).lines_owned_by(2), 0u);
}

TEST(Metrics, AnttAndStpAgainstSelfAreNeutral) {
  MachineConfig cfg = tiny_config();
  Chip chip(cfg, simple_apps(), make_scheme(SchemeKind::kPrivate));
  const MixResult r = chip.run("self");
  EXPECT_NEAR(antt(r, r), 1.0, 1e-12);
  EXPECT_NEAR(stp(r, r), 16.0, 1e-9);
  EXPECT_NEAR(speedup(r, r), 1.0, 1e-12);
}

TEST(Runner, MixForConfigReplicates) {
  const workload::Mix m16 = mix_for_config(config16(), "w1");
  EXPECT_EQ(m16.apps.size(), 16u);
  const workload::Mix m64 = mix_for_config(config64(), "w1");
  EXPECT_EQ(m64.apps.size(), 64u);
}

TEST(Runner, MismatchedMixThrows) {
  workload::Mix bad;
  bad.name = "bad";
  bad.apps = {"po", "sj"};
  EXPECT_THROW(run_mix(config16(), bad, SchemeKind::kSnuca), std::invalid_argument);
}

TEST(Scheme, FactoryNames) {
  EXPECT_EQ(make_scheme(SchemeKind::kSnuca)->name(), "snuca");
  EXPECT_EQ(make_scheme(SchemeKind::kPrivate)->name(), "private");
  EXPECT_EQ(make_scheme(SchemeKind::kIdealCentralized)->name(), "ideal-central");
  EXPECT_EQ(make_scheme(SchemeKind::kDelta)->name(), "delta");
  EXPECT_EQ(to_string(SchemeKind::kDelta), "delta");
}

// ---- Golden capture: every MixResult field, bit-equal. ----

struct AppCapture {
  const char* app;
  int core;
  double ipc, cpi, mpki, miss_rate, avg_latency, avg_hops, avg_ways;
  std::uint64_t instructions, llc_accesses, llc_misses;
};

struct RunCapture {
  const char* mix;
  const char* scheme;
  double geomean_ipc;
  std::array<std::uint64_t, static_cast<std::size_t>(noc::MsgType::kCount)> traffic;
  std::array<std::uint64_t, 6> control;  ///< ControlBreakdown, field order.
  std::uint64_t invalidated_lines, measured_epochs;
  std::vector<AppCapture> apps;
};

const RunCapture kCaptured[] = {
#include "sim_capture.inc"
};

void expect_matches(const MixResult& r, const RunCapture& e, const std::string& what) {
  EXPECT_EQ(r.mix, e.mix) << what;
  EXPECT_EQ(r.scheme, e.scheme) << what;
  EXPECT_EQ(r.geomean_ipc, e.geomean_ipc) << what;
  for (std::size_t t = 0; t < e.traffic.size(); ++t)
    EXPECT_EQ(r.traffic.total(static_cast<noc::MsgType>(t)), e.traffic[t])
        << what << " traffic " << noc::msg_type_name(static_cast<noc::MsgType>(t));
  const std::array<std::uint64_t, 6> control = {
      r.control.challenge, r.control.feedback, r.control.invalidation,
      r.control.handover,  r.control.central,  r.control.market};
  EXPECT_EQ(control, e.control) << what;
  EXPECT_EQ(r.invalidated_lines, e.invalidated_lines) << what;
  EXPECT_EQ(r.measured_epochs, e.measured_epochs) << what;
  ASSERT_EQ(r.apps.size(), e.apps.size()) << what;
  for (std::size_t i = 0; i < e.apps.size(); ++i) {
    const AppResult& a = r.apps[i];
    const AppCapture& x = e.apps[i];
    const std::string at = what + " core " + std::to_string(i);
    EXPECT_EQ(a.app, x.app) << at;
    EXPECT_EQ(a.core, x.core) << at;
    EXPECT_EQ(a.ipc, x.ipc) << at;
    EXPECT_EQ(a.cpi, x.cpi) << at;
    EXPECT_EQ(a.mpki, x.mpki) << at;
    EXPECT_EQ(a.miss_rate, x.miss_rate) << at;
    EXPECT_EQ(a.avg_latency, x.avg_latency) << at;
    EXPECT_EQ(a.avg_hops, x.avg_hops) << at;
    EXPECT_EQ(a.avg_ways, x.avg_ways) << at;
    EXPECT_EQ(a.instructions, x.instructions) << at;
    EXPECT_EQ(a.llc_accesses, x.llc_accesses) << at;
    EXPECT_EQ(a.llc_misses, x.llc_misses) << at;
  }
}

TEST(Sim, ResultsMatchParentCapture) {
  // Pins the exact output of short runs against values captured before the
  // access path was rewritten (per-set records, integer latency tallies,
  // table-driven ring/UMON/CBT lookups): every field, doubles bit-equal.
  // The runs cover all six schemes, the irregular rings (gather, hash
  // join, walk) and the 64-tile intra engine at one and two workers.
  MachineConfig m16 = config16();
  m16.warmup_epochs = 10;
  m16.measure_epochs = 30;
  MachineConfig m64 = config64();
  m64.warmup_epochs = 10;
  m64.measure_epochs = 20;

  struct Case {
    MachineConfig cfg;
    const char* mix;
    SchemeKind kind;
    std::size_t capture;
  };
  std::vector<Case> cases;
  for (std::size_t i = 0; i < kAllSchemeKinds.size(); ++i)
    cases.push_back({m16, "w6", kAllSchemeKinds[i], i});
  cases.push_back({m16, "wi1", SchemeKind::kDelta, 6});
  cases.push_back({m16, "wi1", SchemeKind::kSnuca, 7});
  for (const int jobs : {1, 2}) {
    MachineConfig c = m64;
    c.intra_jobs = jobs;
    cases.push_back({c, "w13", SchemeKind::kDelta, 8});
  }

  for (const Case& k : cases) {
    const MixResult r = run_mix(k.cfg, mix_for_config(k.cfg, k.mix), k.kind);
    expect_matches(r, kCaptured[k.capture],
                   std::string(k.mix) + "/" + std::string(to_string(k.kind)) + "/" +
                       std::to_string(k.cfg.cores) + " tiles/intra " +
                       std::to_string(k.cfg.intra_jobs));
  }
}

TEST(Sim, SweepResultsMatchParentCapture) {
  // The runs of ResultsMatchParentCapture (which stays as captured) as one
  // sweep on two threads: the six w6 schemes, the wi1 pair and the two
  // 64-tile w13 runs each read their single-phase cores' blocks from one
  // shared stream (workload/shared_stream.hpp), and must still match the
  // capture field for field.
  MachineConfig m16 = config16();
  m16.warmup_epochs = 10;
  m16.measure_epochs = 30;
  MachineConfig m64 = config64();
  m64.warmup_epochs = 10;
  m64.measure_epochs = 20;
  std::vector<SweepJob> jobs;
  std::vector<std::size_t> capture;
  const auto add = [&](const MachineConfig& cfg, const char* mix, SchemeKind kind,
                       std::size_t c) {
    jobs.push_back({cfg, mix_for_config(cfg, mix), kind, {}});
    capture.push_back(c);
  };
  for (std::size_t i = 0; i < kAllSchemeKinds.size(); ++i)
    add(m16, "w6", kAllSchemeKinds[i], i);
  add(m16, "wi1", SchemeKind::kDelta, 6);
  add(m16, "wi1", SchemeKind::kSnuca, 7);
  for (const int intra : {1, 2}) {
    MachineConfig c = m64;
    c.intra_jobs = intra;
    add(c, "w13", SchemeKind::kDelta, 8);
  }
  const std::vector<MixResult> rs = run_sweep(jobs, 2);
  ASSERT_EQ(rs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_matches(rs[i], kCaptured[capture[i]],
                   "sweep " + jobs[i].mix.name + "/" +
                       std::string(to_string(jobs[i].kind)) + "/" +
                       std::to_string(jobs[i].cfg.cores) + " tiles/intra " +
                       std::to_string(jobs[i].cfg.intra_jobs));
}

/// `r` as a capture record, so expect_matches can hold one live run to
/// another field by field.  The strings point into `r`.
RunCapture capture_of(const MixResult& r) {
  RunCapture c{r.mix.c_str(),
               r.scheme.c_str(),
               r.geomean_ipc,
               {},
               {r.control.challenge, r.control.feedback, r.control.invalidation,
                r.control.handover, r.control.central, r.control.market},
               r.invalidated_lines,
               r.measured_epochs,
               {}};
  for (std::size_t t = 0; t < c.traffic.size(); ++t)
    c.traffic[t] = r.traffic.total(static_cast<noc::MsgType>(t));
  for (const AppResult& a : r.apps)
    c.apps.push_back({a.app.c_str(), a.core, a.ipc, a.cpi, a.mpki, a.miss_rate, a.avg_latency,
                      a.avg_hops, a.avg_ways, a.instructions, a.llc_accesses, a.llc_misses});
  return c;
}

TEST(Sim, SnucaIgnoresDeltaAndUmonKnobs) {
  // repro's ablation and cbt entries run S-NUCA once, on the base config,
  // as the baseline of every DELTA and UMON knob point.  That holds only
  // while S-NUCA reads none of the knobs those entries sweep.
  MachineConfig base = config16();
  base.warmup_epochs = 10;
  base.measure_epochs = 30;
  MachineConfig knobs = base;
  knobs.delta.gain_threshold = 8.0;
  knobs.delta.inter_delta_ways = 8;
  knobs.delta.intra_delta_ways = 4;
  knobs.delta.inter_interval_epochs = 100;
  knobs.delta.reverse_chunk_bits = false;
  knobs.umon.coarse_ways = 16;
  const workload::Mix mix = mix_for_config(base, "w6");
  const MixResult want = run_mix(base, mix, SchemeKind::kSnuca);
  expect_matches(run_mix(knobs, mix, SchemeKind::kSnuca), capture_of(want),
                 "w6/snuca with DELTA and UMON knobs moved");
}

}  // namespace
}  // namespace delta::sim
