// Tier-2 `check` tests for the seeded fuzz harness and the
// differential-scheme oracle.
#include <gtest/gtest.h>

#include <vector>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "sim/runner.hpp"

namespace delta::check {
namespace {

FuzzOptions small_opts() {
  FuzzOptions opt;
  opt.cases = 2;
  opt.threads = 1;
  return opt;
}

TEST(Fuzz, SeededCasesAreViolationFree) {
  const FuzzOptions opt = small_opts();
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const FuzzCaseResult r = run_fuzz_case(seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": "
                      << (r.violations.empty()
                              ? std::string("?")
                              : to_string(r.violations.front()));
    EXPECT_FALSE(r.json.empty());
    EXPECT_FALSE(r.mix_desc.empty());
  }
}

TEST(Fuzz, SameSeedYieldsByteIdenticalJson) {
  const FuzzOptions opt = small_opts();
  const FuzzCaseResult a = run_fuzz_case(7, opt);
  const FuzzCaseResult b = run_fuzz_case(7, opt);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.mix_desc, b.mix_desc);
}

TEST(Fuzz, DifferentSeedsDrawDifferentCases) {
  const FuzzOptions opt = small_opts();
  const FuzzCaseResult a = run_fuzz_case(7, opt);
  const FuzzCaseResult b = run_fuzz_case(8, opt);
  EXPECT_NE(a.json, b.json);
}

TEST(Fuzz, BatchReportsOrderedBySeed) {
  FuzzOptions opt = small_opts();
  opt.base_seed = 100;
  opt.cases = 3;
  const FuzzReport r = run_fuzz(opt);
  ASSERT_EQ(r.cases.size(), 3u);
  EXPECT_EQ(r.cases[0].seed, 100u);
  EXPECT_EQ(r.cases[1].seed, 101u);
  EXPECT_EQ(r.cases[2].seed, 102u);
  EXPECT_TRUE(r.ok()) << r.failures;
}

// The regression seeds below (0xCA and 204 for CARMA, 0x1F0C and 203 for
// LFOC) were pinned for the config and mix check::draw_config and
// draw_mix give them.  draw_config still consumes the draw of the former
// enforcement-mode knob, so the RNG state draw_mix sees, and with it each
// seed's case, is unchanged.
TEST(Fuzz, CarmaRegressionSeeds) {
  // Pinned seeds covering the auction scheme: the six-scheme pool must run
  // clean under the invariant checker and differential oracle, and the
  // summary must actually contain a carma run.
  const FuzzOptions opt = small_opts();
  for (std::uint64_t seed : {std::uint64_t{0xCA}, std::uint64_t{204}}) {
    const FuzzCaseResult r = run_fuzz_case(seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": "
                      << (r.violations.empty()
                              ? std::string("?")
                              : to_string(r.violations.front()));
    EXPECT_NE(r.json.find("\"scheme\":\"carma\""), std::string::npos);
  }
}

TEST(Fuzz, LfocRegressionSeeds) {
  const FuzzOptions opt = small_opts();
  for (std::uint64_t seed : {std::uint64_t{0x1F0C}, std::uint64_t{203}}) {
    const FuzzCaseResult r = run_fuzz_case(seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": "
                      << (r.violations.empty()
                              ? std::string("?")
                              : to_string(r.violations.front()));
    EXPECT_NE(r.json.find("\"scheme\":\"lfoc\""), std::string::npos);
  }
}

TEST(Fuzz, DeterministicAcrossRepeatAndThreadCounts) {
  FuzzOptions opt = small_opts();
  opt.cases = 3;
  const DeterminismReport same = verify_determinism(opt, 1, 1);
  EXPECT_TRUE(same.ok) << same.detail;
  const DeterminismReport cross = verify_determinism(opt, 1, 3);
  EXPECT_TRUE(cross.ok) << cross.detail;
}

TEST(Differential, RealLockstepComparisonIsClean) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 20;
  cfg.lockstep_accesses = true;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  const std::vector<sim::MixResult> results =
      sim::run_schemes(cfg, {mix}, sim::kPaperSchemeKinds).front();
  const std::vector<Violation> v = diff_schemes(results, /*lockstep=*/true);
  EXPECT_TRUE(v.empty()) << to_string(v.front());
}

TEST(Differential, CatchesTamperedAccessCounts) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 4;
  cfg.measure_epochs = 10;
  cfg.lockstep_accesses = true;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  std::vector<sim::MixResult> results = {
      sim::run_mix(cfg, mix, sim::SchemeKind::kSnuca),
      sim::run_mix(cfg, mix, sim::SchemeKind::kPrivate)};
  results[1].apps[3].llc_accesses += 1;
  const std::vector<Violation> v = diff_schemes(results, /*lockstep=*/true);
  bool saw = false;
  for (const Violation& x : v) saw |= x.kind == InvariantKind::kAccessConservation;
  EXPECT_TRUE(saw);
}

TEST(Differential, CatchesBrokenMissConservation) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 4;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  std::vector<sim::MixResult> results = {
      sim::run_mix(cfg, mix, sim::SchemeKind::kSnuca)};
  results[0].apps[0].llc_misses += 5;  // Misses no longer match mem requests.
  const std::vector<Violation> v = diff_schemes(results, /*lockstep=*/false);
  bool saw = false;
  for (const Violation& x : v) saw |= x.kind == InvariantKind::kDemandConservation;
  EXPECT_TRUE(saw);
}

TEST(Differential, CatchesControlTrafficFromStaticScheme) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 4;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  std::vector<sim::MixResult> results = {
      sim::run_mix(cfg, mix, sim::SchemeKind::kSnuca)};
  results[0].control.challenge = 12;  // A static scheme must never challenge.
  const std::vector<Violation> v = diff_schemes(results, /*lockstep=*/false);
  bool saw = false;
  for (const Violation& x : v) saw |= x.kind == InvariantKind::kStaticControl;
  EXPECT_TRUE(saw);
}

TEST(Differential, CatchesLfocInvalidations) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 4;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  std::vector<sim::MixResult> results = {
      sim::run_mix(cfg, mix, sim::SchemeKind::kLfoc)};
  results[0].invalidated_lines = 3;  // Slice resizes must never invalidate.
  const std::vector<Violation> v = diff_schemes(results, /*lockstep=*/false);
  bool saw = false;
  for (const Violation& x : v) saw |= x.kind == InvariantKind::kStaticControl;
  EXPECT_TRUE(saw);
}

TEST(Differential, CatchesCarmaGrantWithoutBid) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 4;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  std::vector<sim::MixResult> results = {
      sim::run_mix(cfg, mix, sim::SchemeKind::kCarma)};
  // A lot can only sell to a round's bidder.
  results[0].traffic.count(noc::MsgType::kMarketGrant,
                           results[0].traffic.total(noc::MsgType::kMarketBid) +
                               1);
  const std::vector<Violation> v = diff_schemes(results, /*lockstep=*/false);
  bool saw = false;
  for (const Violation& x : v) saw |= x.kind == InvariantKind::kStaticControl;
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace delta::check
