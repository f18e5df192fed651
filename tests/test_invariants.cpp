// Tier-2 `check` tests for the chip-wide invariant checker: clean runs
// under every scheme, fault injection proving the checker actually fires,
// and the standalone MESIF directory checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "mem/directory.hpp"
#include "obs/observer.hpp"
#include "sim/chip.hpp"
#include "sim/runner.hpp"

namespace delta::check {
namespace {

sim::MachineConfig tiny() {
  sim::MachineConfig c = sim::config16();
  c.warmup_epochs = 6;
  c.measure_epochs = 24;
  return c;
}

workload::Mix mix16() {
  workload::Mix m;
  m.name = "inv";
  m.apps = {"mc", "po", "xa", "na", "ze", "hm", "ga", "gr",
            "li", "de", "om", "bw", "so", "ca", "pe", "Ge"};
  return m;
}

std::vector<std::string> apps16() { return mix16().apps; }

std::string kinds_of(const InvariantChecker& chk) {
  std::string s;
  for (const Violation& v : chk.violations()) {
    s += to_string(v);
    s += '\n';
  }
  return s;
}

class EveryScheme : public ::testing::TestWithParam<sim::SchemeKind> {};

TEST_P(EveryScheme, FullRunIsViolationFree) {
  InvariantChecker chk;
  sim::run_mix(tiny(), mix16(), GetParam(), {}, nullptr, &chk);
  EXPECT_TRUE(chk.clean()) << kinds_of(chk);
}

TEST_P(EveryScheme, RunWithIdleCoresIsViolationFree) {
  // Idle home banks get handed over under DELTA; the checker must not
  // mistake that for a home-floor breach.
  workload::Mix m = mix16();
  m.apps[1] = m.apps[5] = m.apps[10] = m.apps[15] = "idle";
  InvariantChecker chk;
  sim::run_mix(tiny(), m, GetParam(), {}, nullptr, &chk);
  EXPECT_TRUE(chk.clean()) << kinds_of(chk);
}

INSTANTIATE_TEST_SUITE_P(Schemes, EveryScheme,
                         ::testing::Values(sim::SchemeKind::kSnuca,
                                           sim::SchemeKind::kPrivate,
                                           sim::SchemeKind::kIdealCentralized,
                                           sim::SchemeKind::kDelta),
                         [](const auto& inf) {
                           std::string s(sim::to_string(inf.param));
                           for (auto& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

TEST(InvariantChecker, CatchesInjectedWayLeakUnderDelta) {
  sim::Chip chip(tiny(), apps16(), sim::make_scheme(sim::SchemeKind::kDelta));
  chip.run_epochs(20, false);

  InvariantChecker before;
  before.on_epoch(chip, 20);
  ASSERT_TRUE(before.clean()) << kinds_of(before);

  // Silently drop one way's ownership — the bug class the conservation
  // check exists for (a transfer that loses a way instead of moving it).
  ASSERT_TRUE(chip.scheme().debug_drop_way(3, 7));
  InvariantChecker after;
  after.check_partitioning(chip, 21);
  ASSERT_FALSE(after.clean());
  bool saw_conservation = false;
  for (const Violation& v : after.violations())
    saw_conservation |= v.kind == InvariantKind::kWayConservation;
  EXPECT_TRUE(saw_conservation) << kinds_of(after);
}

TEST(InvariantChecker, CatchesInjectedWayLeakUnderIdealCentral) {
  sim::Chip chip(tiny(), apps16(),
                 sim::make_scheme(sim::SchemeKind::kIdealCentralized));
  chip.run_epochs(20, false);
  ASSERT_TRUE(chip.scheme().debug_drop_way(0, 0));
  InvariantChecker chk;
  chk.check_partitioning(chip, 20);
  EXPECT_FALSE(chk.clean());
}

TEST(InvariantChecker, StaticSchemesHaveNoWayPartitionState) {
  sim::Chip chip(tiny(), apps16(), sim::make_scheme(sim::SchemeKind::kSnuca));
  EXPECT_FALSE(chip.scheme().debug_drop_way(0, 0));
  EXPECT_EQ(chip.scheme().wp_unit(0), nullptr);
  EXPECT_EQ(chip.scheme().cbt_of(0), nullptr);
}

TEST(InvariantChecker, ThrowOnViolationFailsFast) {
  sim::Chip chip(tiny(), apps16(), sim::make_scheme(sim::SchemeKind::kDelta));
  chip.run_epochs(12, false);
  ASSERT_TRUE(chip.scheme().debug_drop_way(5, 2));
  CheckerOptions opts;
  opts.throw_on_violation = true;
  InvariantChecker chk(opts);
  EXPECT_THROW(chk.check_partitioning(chip, 12), InvariantError);
  // The violation is still recorded before the throw.
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_EQ(chk.violations()[0].kind, InvariantKind::kWayConservation);
}

TEST(InvariantChecker, CatchesStaleLineOutsideOwnersMapping) {
  // Under the private scheme core 0 maps everything to bank 0; a line owned
  // by core 0 sitting in bank 9 is exactly what an incomplete
  // bulk-invalidation sweep would leave behind.
  sim::Chip chip(tiny(), apps16(), sim::make_scheme(sim::SchemeKind::kPrivate));
  chip.run_epochs(5, false);
  chip.bank(9).access(/*set=*/3, /*block=*/0xDEAD, /*owner=*/0,
                      mem::full_mask(16));
  InvariantChecker chk;
  chk.check_residency(chip, 5);
  ASSERT_FALSE(chk.clean());
  bool saw = false;
  for (const Violation& v : chk.violations())
    saw |= v.kind == InvariantKind::kResidencyAgreement && v.bank == 9;
  EXPECT_TRUE(saw) << kinds_of(chk);
}

TEST(InvariantChecker, ViolationsLandInObservabilityTrace) {
  sim::Chip chip(tiny(), apps16(), sim::make_scheme(sim::SchemeKind::kDelta));
  obs::Observer obs(obs::ObsLevel::kFull);
  obs.begin_run("delta");
  chip.set_observer(&obs);
  chip.run_epochs(12, false);
  ASSERT_TRUE(chip.scheme().debug_drop_way(2, 4));
  InvariantChecker chk;
  chk.check_partitioning(chip, 12);
  ASSERT_FALSE(chk.clean());
  EXPECT_GE(obs.events().count_of(obs::EventKind::kInvariantViolation), 1u);
}

TEST(InvariantChecker, ViolationFormattingNamesTheInvariant) {
  Violation v;
  v.kind = InvariantKind::kHomeFloor;
  v.epoch = 7;
  v.core = 3;
  v.bank = 3;
  v.value = 1;
  v.expect = 4;
  v.detail = "active core below reserved home floor";
  const std::string s = to_string(v);
  EXPECT_NE(s.find("home_floor"), std::string::npos);
  EXPECT_NE(s.find("epoch 7"), std::string::npos);
  EXPECT_NE(s.find("observed 1"), std::string::npos);
  EXPECT_NE(s.find("expected 4"), std::string::npos);
}

TEST(DirectoryInvariants, CoherentHistoryIsViolationFree) {
  mem::MesifDirectory dir(4, 512);
  dir.on_read(0, 100);
  dir.on_read(1, 100);
  dir.on_write(2, 100);
  dir.on_read(3, 200);
  dir.on_evict(3, 200);
  dir.on_write(0, 300);
  dir.on_read(1, 300);
  std::vector<Violation> out;
  check_directory(dir, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(DirectoryInvariants, AgreementHoldsWhenCachesTrackSharers) {
  mem::MesifDirectory dir(4, 512);
  dir.on_read(0, 100);
  dir.on_read(1, 100);
  std::vector<Violation> out;
  check_directory_agreement(
      dir, [&](CoreId c, BlockAddr b) { return dir.is_sharer(c, b); }, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(DirectoryInvariants, DetectsSharerWithoutResidentCopy) {
  mem::MesifDirectory dir(4, 512);
  dir.on_read(0, 100);
  dir.on_read(1, 100);
  std::vector<Violation> out;
  // Model a cache that silently dropped core 1's copy (no on_evict).
  check_directory_agreement(
      dir, [](CoreId c, BlockAddr) { return c == 0; }, 3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, InvariantKind::kDirectoryAgreement);
  EXPECT_EQ(out[0].core, 1);
  EXPECT_EQ(out[0].epoch, 3u);
}

TEST(LockstepMode, PinsPerAppAccessCountsAcrossSchemes) {
  sim::MachineConfig cfg = tiny();
  cfg.lockstep_accesses = true;
  const sim::MixResult a =
      sim::run_mix(cfg, mix16(), sim::SchemeKind::kSnuca);
  const sim::MixResult b = sim::run_mix(cfg, mix16(), sim::SchemeKind::kDelta);
  for (std::size_t i = 0; i < a.apps.size(); ++i)
    EXPECT_EQ(a.apps[i].llc_accesses, b.apps[i].llc_accesses) << i;
}

}  // namespace
}  // namespace delta::check
