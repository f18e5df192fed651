// Access-engine determinism: the staged bank-by-bank engine
// (sim/intra.hpp) must be byte-identical to the frozen serial loop in
// reference_engine.hpp at every thread count.  These tests compare full
// JSON summaries — every per-app double, traffic counter and
// control-message count — because "close" is not the contract; bit-equal
// is.  Every `reference` run below is a chip built inside a
// ReferenceEngineScope.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference_engine.hpp"

#include "check/fuzz.hpp"
#include "core/cbt.hpp"
#include "mem/address.hpp"
#include "noc/mcu.hpp"
#include "noc/mesh.hpp"
#include "noc/traffic.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/prof/export.hpp"
#include "sim/chip.hpp"
#include "sim/intra.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/scheme.hpp"
#include "umon/umon.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"

namespace delta {
namespace {

sim::MachineConfig quick16(int intra_jobs) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 10;
  cfg.measure_epochs = 30;
  cfg.intra_jobs = intra_jobs;
  return cfg;
}

sim::MachineConfig quick64(int intra_jobs) {
  sim::MachineConfig cfg = sim::config64();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  cfg.intra_jobs = intra_jobs;
  return cfg;
}

std::string run_summary(const sim::MachineConfig& cfg, const std::string& mix,
                        sim::SchemeKind kind) {
  const sim::MixResult r =
      sim::run_mix(cfg, sim::mix_for_config(cfg, mix), kind);
  return sim::json_summary({&r, 1});
}

/// run_summary on the reference loop (intra_jobs plays no part there).
std::string reference_summary(const sim::MachineConfig& cfg, const std::string& mix,
                              sim::SchemeKind kind) {
  const test::ReferenceEngineScope reference;
  return run_summary(cfg, mix, kind);
}

constexpr sim::SchemeKind kAllSchemes[] = {
    sim::SchemeKind::kSnuca,  sim::SchemeKind::kPrivate,
    sim::SchemeKind::kIdealCentralized, sim::SchemeKind::kDelta,
    sim::SchemeKind::kCarma,  sim::SchemeKind::kLfoc};

TEST(Intra, ByteIdenticalAllSchemes16Core) {
  for (const sim::SchemeKind kind : kAllSchemes) {
    const std::string reference = reference_summary(quick16(1), "w2", kind);
    // 1 (inline), 2, 4, and auto (hardware threads): one shard per thread,
    // every partitioning of the cores/banks must replay the same
    // interleaving.
    for (const int jobs : {1, 2, 4, 0})
      EXPECT_EQ(reference, run_summary(quick16(jobs), "w2", kind))
          << "intra-jobs " << jobs << " diverged for " << sim::to_string(kind);
  }
}

TEST(Intra, ByteIdentical64Tile) {
  // The 64-tile machine has 4x the banks and the replicated mix; keep the
  // run short but cover the schemes with during-epoch machinery (delta's
  // distributed controller, carma's auction enforcement, lfoc's slice
  // resizing) plus the S-NUCA baseline.  8 jobs oversubscribes a small CI
  // host, which is exactly the regime where stolen schedules differ most
  // between runs — and must still not differ in results.
  for (const sim::SchemeKind kind :
       {sim::SchemeKind::kDelta, sim::SchemeKind::kSnuca,
        sim::SchemeKind::kCarma, sim::SchemeKind::kLfoc}) {
    const std::string reference = reference_summary(quick64(1), "w13", kind);
    EXPECT_EQ(reference, run_summary(quick64(4), "w13", kind))
        << "64-tile intra-jobs 4 diverged for " << sim::to_string(kind);
    EXPECT_EQ(reference, run_summary(quick64(8), "w13", kind))
        << "64-tile intra-jobs 8 diverged for " << sim::to_string(kind);
  }
}

/// Everything an epoch's accesses leave behind, as one string: every
/// core's statistics and monitor curve, every bank's stats and contents
/// (a digest), the demand traffic and every MCU's request count.
/// `slot(c)` and `bank(b)` name the `cores` slots and banks.
template <typename SlotAt, typename BankAt>
std::string engine_state(int cores, SlotAt slot, BankAt bank_at,
                         const noc::TrafficStats& traffic,
                         const noc::MemorySystem& memsys) {
  std::string out;
  const auto put = [&](std::uint64_t v) { out += std::to_string(v) + ' '; };
  const auto put_bits = [&](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    put(bits);
  };
  for (CoreId c = 0; c < cores; ++c) {
    const sim::AppSlot& s = slot(c);
    put(s.epoch_accesses);
    put(s.llc_hits);
    put(s.llc_misses);
    put_bits(s.epoch_lat_sum);
    put_bits(s.lat_sum);
    put_bits(s.hop_sum);
    if (s.umon != nullptr) {
      put(s.umon->sampled_accesses());
      const umon::MissCurve curve = s.umon->miss_curve();
      for (int w = 0; w <= curve.max_ways(); ++w) put_bits(curve.at(w));
    }
  }
  for (BankId b = 0; b < cores; ++b) {
    const mem::SetAssocCache& bank = bank_at(b);
    put(bank.stats().hits);
    put(bank.stats().misses);
    put(bank.stats().evictions);
    std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the lines.
    bank.for_each_line([&](std::uint32_t set, int way, BlockAddr block, CoreId owner) {
      for (const std::uint64_t v : {std::uint64_t{set}, static_cast<std::uint64_t>(way),
                                    block, static_cast<std::uint64_t>(owner)})
        digest = (digest ^ v) * 0x100000001b3ull;
    });
    put(digest);
  }
  put(traffic.demand_messages());
  for (int m = 0; m < memsys.num_mcus(); ++m) put(memsys.mcu(m).total_requests());
  return out;
}

std::string chip_state(sim::Chip& chip) {
  return engine_state(
      chip.cores(), [&chip](CoreId c) -> const sim::AppSlot& { return chip.slot(c); },
      [&chip](BankId b) -> const mem::SetAssocCache& { return chip.bank(b); },
      chip.traffic(), chip.memsys());
}

TEST(Intra, SideBySideWithReferenceOnTheDensestMerge) {
  // The densest merge there is: 64-tile S-NUCA spreads every core over
  // every bank, so each bank merges all 64 cores' runs round by round.
  // Both chips step one epoch at a time and must agree after each.
  for (const int jobs : {1, 4}) {
    const sim::MachineConfig cfg = quick64(jobs);
    const workload::Mix mix = sim::mix_for_config(cfg, "w13");
    const auto reference = [&] {
      const test::ReferenceEngineScope scope;
      return std::make_unique<sim::Chip>(cfg, mix.apps,
                                         sim::make_scheme(sim::SchemeKind::kSnuca));
    }();
    sim::Chip engine(cfg, mix.apps, sim::make_scheme(sim::SchemeKind::kSnuca));
    for (int e = 0; e < cfg.warmup_epochs + cfg.measure_epochs; ++e) {
      const bool measuring = e >= cfg.warmup_epochs;
      reference->run_epochs(1, measuring);
      engine.run_epochs(1, measuring);
      ASSERT_EQ(chip_state(*reference), chip_state(engine))
          << "intra-jobs " << jobs << " diverged in epoch " << e;
    }
  }
}

/// Every input of the access step, built by hand instead of by a Chip, so
/// a test sets the plan, which cores are active and each core's target
/// itself.  Active cores draw their app's stream and feed a UMON.
struct HandEpoch {
  sim::MachineConfig cfg;
  noc::Mesh mesh;
  noc::MemorySystem memsys;
  noc::TrafficStats traffic;
  std::vector<mem::SetAssocCache> banks;
  std::vector<sim::AppSlot> slots;
  sim::EpochPlan plan;

  HandEpoch(const sim::MachineConfig& c, const std::vector<std::string>& apps)
      : cfg(c),
        mesh(cfg.mesh_width, cfg.mesh_height),
        memsys(cfg.num_mcus, cfg.mesh_width, cfg.mesh_height, cfg.mcu) {
    for (int b = 0; b < cfg.cores; ++b)
      banks.emplace_back(static_cast<std::uint32_t>(cfg.sets_per_bank()),
                         cfg.ways_per_bank);
    slots.resize(static_cast<std::size_t>(cfg.cores));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (apps[i] == "idle") continue;
      sim::AppSlot& s = slots[i];
      s.app_name = apps[i];
      s.profile = &workload::spec_profile(apps[i]);
      s.gen =
          std::make_unique<workload::TraceGen>(*s.profile, (Addr{i} + 1) << 34, i + 1);
      s.umon = std::make_unique<umon::Umon>(cfg.umon);
      s.active = true;
    }
    plan.init(cfg.cores, cfg.sets_log2, mem::full_mask(cfg.ways_per_bank));
  }

  /// Core `core`'s route: the first `chunks` of the 256 chunks to `bank`,
  /// the rest to its home bank.  Chunk 0 holds the bottom of the core's
  /// address window, where every stream's rings start, so even one chunk
  /// carries accesses.
  void route(CoreId core, BankId bank, int chunks) {
    core::Cbt cbt(core, cfg.delta.reverse_chunk_bits);
    cbt.rebuild({{bank, chunks}, {core, mem::kNumChunks - chunks}});
    plan.route_cbt(core, cbt);
  }

  void run(sim::AccessEngine& engine, const std::vector<std::uint64_t>& targets,
           std::uint64_t epoch) {
    for (sim::AppSlot& s : slots) {
      s.epoch_accesses = 0;
      s.epoch_lat_sum = 0.0;
      if (s.active) s.gen->set_epoch(epoch);
    }
    engine.run_epoch(sim::EpochAccess{plan, banks, slots, targets, mesh, memsys, traffic,
                                      cfg.llc_tag_latency + cfg.llc_data_latency, epoch,
                                      true});
    memsys.end_epoch(cfg.epoch_cycles);
  }

  std::string state() const {
    return engine_state(
        cfg.cores,
        [this](CoreId c) -> const sim::AppSlot& {
          return slots[static_cast<std::size_t>(c)];
        },
        [this](BankId b) -> const mem::SetAssocCache& {
          return banks[static_cast<std::size_t>(b)];
        },
        traffic, memsys);
  }
};

/// Runs `setup`'s hand-built epochs on the reference loop and on the staged
/// engine at 1, 2 and 4 workers, requiring equal state after every epoch.
/// `setup` builds the plan on a fresh HandEpoch; `targets` are per core.
template <typename Setup>
void expect_engine_matches_reference(const char* what,
                                     const std::vector<std::string>& apps,
                                     const std::vector<std::uint64_t>& targets,
                                     Setup setup) {
  const sim::MachineConfig cfg = sim::config16();
  constexpr int kEpochs = 4;
  HandEpoch reference(cfg, apps);
  setup(reference);
  test::ReferenceEngine reference_engine;
  std::vector<std::string> want;
  for (int e = 0; e < kEpochs; ++e) {
    reference.run(reference_engine, targets, static_cast<std::uint64_t>(e));
    want.push_back(reference.state());
  }
  for (const unsigned jobs : {1u, 2u, 4u}) {
    HandEpoch staged(cfg, apps);
    setup(staged);
    sim::IntraEngine engine(cfg.cores, cfg.num_mcus, jobs);
    for (int e = 0; e < kEpochs; ++e) {
      staged.run(engine, targets, static_cast<std::uint64_t>(e));
      ASSERT_EQ(want[static_cast<std::size_t>(e)], staged.state())
          << what << ": intra-jobs " << jobs << " diverged in epoch " << e;
    }
  }
}

const std::vector<std::string> kApps16 = {"mc", "po", "xa", "na", "ze", "hm", "ga", "gr",
                                          "li", "de", "om", "bw", "so", "ca", "pe", "Ge"};

TEST(IntraPrivatePairs, OneForeignChunkSendsTheBankThroughTheMerge) {
  // Core 0 routes only to bank 0, but core 1 routes one chunk there too:
  // bank 0 has two possible contributors and must take the merge, and core
  // 1 (two banks) stages normally.  Cores 2-15 stay home: private pairs.
  // Large targets put both cores' bank-0 accesses in many shared rounds.
  expect_engine_matches_reference("one foreign chunk", kApps16,
                                  std::vector<std::uint64_t>(16, 3000),
                                  [](HandEpoch& h) { h.route(1, 0, 1); });
}

TEST(IntraPrivatePairs, IdleCoresDoNotBlockPrivacy) {
  // Idle cores keep their home routes, which name their own banks; only
  // cores with accesses can contend.  Core 0 routes everything to
  // idle core 1's bank, core 2 to idle core 3's, core 4 splits between
  // its home and idle core 5's bank (not private: two banks).
  std::vector<std::string> apps = kApps16;
  for (const int idle : {1, 3, 5, 9}) apps[static_cast<std::size_t>(idle)] = "idle";
  std::vector<std::uint64_t> targets(16, 2000);
  for (const int idle : {1, 3, 5, 9}) targets[static_cast<std::size_t>(idle)] = 0;
  expect_engine_matches_reference("idle cores", apps, targets, [](HandEpoch& h) {
    h.route(0, 1, mem::kNumChunks);
    h.route(2, 3, mem::kNumChunks);
    h.route(4, 5, 64);
  });
}

TEST(IntraPrivatePairs, AnActiveCoreWithZeroTargetDoesNotContend) {
  // Core 4 is active but has no accesses this epoch; core 5 routes all of
  // its stream to bank 4, which is still private.  Core 6 routes to bank
  // 7 while core 7 (target zero) keeps its home route there.
  std::vector<std::uint64_t> targets(16, 2000);
  targets[4] = 0;
  targets[7] = 0;
  expect_engine_matches_reference("zero target", kApps16, targets, [](HandEpoch& h) {
    h.route(5, 4, mem::kNumChunks);
    h.route(6, 7, mem::kNumChunks);
  });
}

TEST(IntraPrivatePairs, EmptyWayMaskBypassesOnThePrivatePath) {
  // A private pair whose plan mask is empty inserts nothing: every miss
  // bypasses the bank.  Core 2's mask keeps a single way.
  expect_engine_matches_reference("empty mask", kApps16,
                                  std::vector<std::uint64_t>(16, 2500), [](HandEpoch& h) {
                                    const auto n = static_cast<std::size_t>(h.plan.banks);
                                    h.plan.masks[6 * n + 6] = 0;
                                    h.plan.masks[2 * n + 2] = 0x1;
                                  });
}

TEST(IntraPrivatePairs, PrivateSchemeMatchesReferenceAt16And64Tiles) {
  // The private scheme is every core its home bank's only contributor.
  constexpr sim::SchemeKind kPrivate = sim::SchemeKind::kPrivate;
  const std::string ref16 = reference_summary(quick16(1), "w2", kPrivate);
  const std::string ref64 = reference_summary(quick64(1), "w13", kPrivate);
  for (const int jobs : {1, 2, 4}) {
    EXPECT_EQ(ref16, run_summary(quick16(jobs), "w2", kPrivate))
        << "16-tile intra-jobs " << jobs;
    EXPECT_EQ(ref64, run_summary(quick64(jobs), "w13", kPrivate))
        << "64-tile intra-jobs " << jobs;
  }
}

TEST(Intra, TaskExceptionRethrowsOnCallerAndEngineRecovers) {
  // A throwing task must not hang a worker spinning on a phase counter: the
  // run rethrows the task's exception on the calling thread and returns.
  // The failure is injected in the stage phase: core 3's stream is moved to
  // an address window whose blocks overflow the UMON's 32-bit stack tags,
  // so its first sampled access throws while the other cores stage.  At one
  // worker the tasks run inline, so the exception leaves mid-stage there.
  const std::string reference =
      reference_summary(quick16(1), "w2", sim::SchemeKind::kDelta);
  for (const int jobs : {1, 2, 4, 8}) {
    const sim::MachineConfig cfg = quick16(jobs);
    const workload::Mix mix = sim::mix_for_config(cfg, "w2");
    sim::Chip chip(cfg, mix.apps, sim::make_scheme(sim::SchemeKind::kDelta));
    ASSERT_EQ(chip.intra_threads(), static_cast<unsigned>(jobs));
    sim::AppSlot& victim = chip.slot(3);
    ASSERT_NE(victim.umon, nullptr);
    victim.gen = std::make_unique<workload::TraceGen>(*victim.profile, Addr{1} << 52, 7);
    EXPECT_THROW((void)chip.run(mix.name), std::out_of_range) << "intra-jobs " << jobs;
    // A fresh chip afterwards still replays the reference bytes.
    EXPECT_EQ(reference, run_summary(cfg, "w2", sim::SchemeKind::kDelta))
        << "intra-jobs " << jobs << " diverged after a failed run";
  }
}

TEST(Intra, FuzzBatchThroughIntraEngine) {
  // Randomized configs (both enforcement flavours, both chunk encodings,
  // idle cores, tight cadences) through the parallel engine, with the
  // chip-wide invariant checker attached and the reference loop as oracle.
  check::FuzzOptions opt;
  opt.cases = 3;
  const check::FuzzReport a = [&] {
    const test::ReferenceEngineScope reference;
    return check::run_fuzz(opt);
  }();
  opt.intra_jobs = 2;
  const check::FuzzReport b = check::run_fuzz(opt);
  ASSERT_EQ(a.cases.size(), b.cases.size());
  EXPECT_EQ(b.failures, 0);
  for (std::size_t i = 0; i < a.cases.size(); ++i)
    EXPECT_EQ(a.cases[i].json, b.cases[i].json)
        << "fuzz seed " << a.cases[i].seed << " diverged under intra-jobs 2";
}

TEST(Intra, SweepBudgetSplitPreservesResults) {
  // intra_jobs = 0 inside a sweep resolves to the leftover thread budget;
  // whatever the split turns out to be, results must match a one-thread
  // sweep on the reference loop byte for byte.
  const std::vector<workload::Mix> mixes = {
      sim::mix_for_config(quick16(1), "w2")};
  std::vector<sim::SweepJob> auto_jobs, reference_jobs;
  for (const sim::SchemeKind kind : kAllSchemes) {
    auto_jobs.push_back({quick16(0), mixes[0], kind, {}});
    reference_jobs.push_back({quick16(1), mixes[0], kind, {}});
  }
  const auto swept_auto = sim::run_sweep(auto_jobs, 2);
  const auto swept_reference = [&] {
    const test::ReferenceEngineScope reference;
    return sim::run_sweep(reference_jobs, 1);
  }();
  ASSERT_EQ(swept_auto.size(), swept_reference.size());
  EXPECT_EQ(sim::json_summary(swept_auto), sim::json_summary(swept_reference));
}

TEST(Intra, ObservedSweepMergesToSerialTrace) {
  // delta_sim's --jobs + observability path: per-job observers merged in
  // scheme order must export the same trace/timeline a serial observed
  // comparison produces.
  const sim::MachineConfig cfg = quick16(1);
  const workload::Mix mix = sim::mix_for_config(cfg, "w2");

  obs::Observer serial_obs(obs::ObsLevel::kFull);
  for (const sim::SchemeKind kind : kAllSchemes)
    (void)sim::run_mix(cfg, mix, kind, {}, &serial_obs);

  for (const unsigned threads : {1u, 4u}) {
    std::vector<sim::SweepJob> jobs;
    std::vector<std::unique_ptr<obs::Observer>> job_obs;
    std::vector<obs::Observer*> ptrs;
    for (const sim::SchemeKind kind : kAllSchemes) {
      jobs.push_back({cfg, mix, kind, {}});
      job_obs.push_back(std::make_unique<obs::Observer>(obs::ObsLevel::kFull));
      ptrs.push_back(job_obs.back().get());
    }
    (void)sim::run_sweep(jobs, threads, ptrs);
    obs::Observer merged(obs::ObsLevel::kFull);
    for (const auto& jo : job_obs) merged.merge_from(*jo);

    EXPECT_EQ(serial_obs.run_names(), merged.run_names()) << threads << " threads";
    EXPECT_EQ(obs::prof::prof_trace_json({}, &serial_obs),
              obs::prof::prof_trace_json({}, &merged))
        << threads << " threads";
    EXPECT_EQ(obs::timeline_csv(serial_obs), obs::timeline_csv(merged))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace delta
