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
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/prof/export.hpp"
#include "sim/chip.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/scheme.hpp"
#include "workload/generator.hpp"

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

TEST(Intra, ByteIdenticalUnderInterleaveBatchOverride) {
  // interleave_batch IS part of the determinism contract: a different batch
  // interleaves the per-core streams differently and legitimately changes
  // results — but the reference loop and the engine must agree at any
  // given value.
  for (const std::uint32_t batch : {1u, 5u, 32u}) {
    sim::MachineConfig reference_cfg = quick16(1);
    reference_cfg.interleave_batch = batch;
    sim::MachineConfig par_cfg = quick16(4);
    par_cfg.interleave_batch = batch;
    EXPECT_EQ(reference_summary(reference_cfg, "w2", sim::SchemeKind::kDelta),
              run_summary(par_cfg, "w2", sim::SchemeKind::kDelta))
        << "interleave_batch " << batch << " diverged";
  }
  // The merge extremes on the 64-tile machine: under DELTA each bank has
  // about one contributing core, under S-NUCA every core feeds every bank.
  // Batch 1 makes every access its own merge round; 2^30 exceeds any
  // per-core epoch target, so the whole epoch is one round.
  for (const sim::SchemeKind kind : {sim::SchemeKind::kDelta, sim::SchemeKind::kSnuca}) {
    for (const std::uint32_t batch : {1u, 1u << 30}) {
      sim::MachineConfig reference_cfg = quick64(1);
      reference_cfg.interleave_batch = batch;
      const std::string reference = reference_summary(reference_cfg, "w13", kind);
      for (const int jobs : {2, 4}) {
        sim::MachineConfig par_cfg = quick64(jobs);
        par_cfg.interleave_batch = batch;
        EXPECT_EQ(reference, run_summary(par_cfg, "w13", kind))
            << "64-tile " << sim::to_string(kind) << " interleave_batch " << batch
            << " intra-jobs " << jobs << " diverged";
      }
    }
  }
  // And the override really is an override: batch 1 and the default batch
  // are different interleavings, so their results must differ.
  sim::MachineConfig one = quick16(1);
  one.interleave_batch = 1;
  EXPECT_NE(run_summary(one, "w2", sim::SchemeKind::kDelta),
            run_summary(quick16(1), "w2", sim::SchemeKind::kDelta));
}

/// Everything an epoch's accesses leave behind on a chip, as one string:
/// every core's statistics, every bank's stats and contents (a digest),
/// the demand traffic and every MCU's request count.
std::string chip_state(sim::Chip& chip) {
  std::string out;
  const auto put = [&](std::uint64_t v) { out += std::to_string(v) + ' '; };
  const auto put_bits = [&](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    put(bits);
  };
  for (CoreId c = 0; c < chip.cores(); ++c) {
    const sim::AppSlot& s = chip.slot(c);
    put(s.epoch_accesses);
    put(s.llc_hits);
    put(s.llc_misses);
    put_bits(s.epoch_lat_sum);
    put_bits(s.lat_sum);
    put_bits(s.hop_sum);
  }
  for (BankId b = 0; b < chip.cores(); ++b) {
    const mem::SetAssocCache& bank = chip.bank(b);
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
  put(chip.traffic().demand_messages());
  for (int m = 0; m < chip.memsys().num_mcus(); ++m)
    put(chip.memsys().mcu(m).total_requests());
  return out;
}

TEST(Intra, SideBySideWithReferenceAtEveryAccessItsOwnRound) {
  // The densest merge there is: 64-tile S-NUCA spreads every core over
  // every bank, and interleave_batch 1 makes each access its own round, so
  // the fused walk hands the round over between runs on every access.
  // Both chips step one epoch at a time and must agree after each.
  for (const int jobs : {1, 4}) {
    sim::MachineConfig cfg = quick64(jobs);
    cfg.interleave_batch = 1;
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
