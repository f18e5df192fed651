// Cross-scheme property tests: invariants that must hold for every
// partitioning scheme while a real workload runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include <cmath>

#include "alloc/auction.hpp"
#include "alloc/fairshare.hpp"
#include "common/rng.hpp"
#include "core/pain_gain.hpp"
#include "core/way_partition.hpp"
#include "mem/address.hpp"
#include "noc/traffic.hpp"
#include "sim/chip.hpp"
#include "sim/runner.hpp"
#include "umon/umon.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"

namespace delta::sim {
namespace {

MachineConfig tiny() {
  MachineConfig c = config16();
  c.warmup_epochs = 10;
  c.measure_epochs = 40;
  return c;
}

std::vector<std::string> apps16() {
  return {"mc", "po", "xa", "na", "ze", "hm", "ga", "gr",
          "li", "de", "om", "bw", "so", "ca", "pe", "Ge"};
}

class EveryScheme : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(EveryScheme, MapAlwaysReturnsValidBankAndSet) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(GetParam()));
  chip.run_epochs(30, false);
  Rng rng(3);
  for (int c = 0; c < 16; ++c) {
    for (int i = 0; i < 2000; ++i) {
      const BlockAddr b = rng();
      const BankTarget t = chip.plan().target(c, b);
      ASSERT_GE(t.bank, 0);
      ASSERT_LT(t.bank, 16);
      ASSERT_LT(t.set, static_cast<std::uint32_t>(cfg.sets_per_bank()));
    }
  }
}

TEST_P(EveryScheme, InsertMasksOfDistinctCoresAreDisjointUnderPartitioning) {
  // Holds for the per-core partitioned schemes; S-NUCA deliberately shares
  // all ways and LFOC shares a slice per cluster (its sharing discipline is
  // pinned by LfocSchemeProps below).
  if (GetParam() == SchemeKind::kSnuca || GetParam() == SchemeKind::kLfoc)
    GTEST_SKIP();
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(GetParam()));
  chip.run_epochs(35, false);
  for (int bank = 0; bank < 16; ++bank) {
    mem::WayMask seen = 0;
    for (int c = 0; c < 16; ++c) {
      if (GetParam() == SchemeKind::kPrivate && c != bank) continue;
      const mem::WayMask m = chip.plan().mask(c, bank);
      EXPECT_EQ(seen & m, 0u) << "bank " << bank << " core " << c;
      seen |= m;
    }
  }
}

TEST_P(EveryScheme, AllocatedWaysStayWithinChipCapacity) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(GetParam()));
  for (int step = 0; step < 6; ++step) {
    chip.run_epochs(10, false);
    int total = 0;
    for (int c = 0; c < 16; ++c) {
      const int w = chip.scheme().allocated_ways(chip, c);
      EXPECT_GE(w, 0);
      total += w;
    }
    // Shared-capacity schemes (snuca, lfoc) report nominal per-bank shares
    // whose per-core sum exceeds the chip; only exclusive partitions bound it.
    if (GetParam() != SchemeKind::kSnuca && GetParam() != SchemeKind::kLfoc) {
      EXPECT_LE(total, 16 * 16);
    }
  }
}

TEST_P(EveryScheme, RunsAreDeterministic) {
  MachineConfig cfg = tiny();
  Chip a(cfg, apps16(), make_scheme(GetParam()));
  Chip b(cfg, apps16(), make_scheme(GetParam()));
  const MixResult ra = a.run("d");
  const MixResult rb = b.run("d");
  for (std::size_t i = 0; i < ra.apps.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra.apps[i].ipc, rb.apps[i].ipc) << i;
    ASSERT_EQ(ra.apps[i].llc_misses, rb.apps[i].llc_misses) << i;
  }
}

TEST_P(EveryScheme, WorkloadStreamsIdenticalAcrossSchemes) {
  // Scheme choice must not perturb what the applications *access* per
  // epoch budget formulae inputs (same profiles, same seeds).  We verify
  // by checking that the first epochs' per-core LLC access counts are in
  // the same ballpark across schemes (rates differ only through measured
  // IPC).
  MachineConfig cfg = tiny();
  Chip x(cfg, apps16(), make_scheme(GetParam()));
  Chip y(cfg, apps16(), make_scheme(SchemeKind::kSnuca));
  x.run_epochs(5, true);
  y.run_epochs(5, true);
  for (int c = 0; c < 16; ++c) {
    const auto ax = static_cast<double>(x.slot(c).llc_hits + x.slot(c).llc_misses);
    const auto ay = static_cast<double>(y.slot(c).llc_hits + y.slot(c).llc_misses);
    if (ay > 0) {
      EXPECT_NEAR(ax / ay, 1.0, 0.5) << c;
    }
  }
}

TEST_P(EveryScheme, PlanBankSetsNameExactlyTheRoutedBanks) {
  // The access engine finds private bank pairs from EpochPlan::reach, so
  // every route writer must leave each core's set equal to the banks its
  // route table names, epoch after epoch as the scheme remaps.
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(GetParam()));
  for (int step = 0; step < 8; ++step) {
    chip.run_epochs(5, false);
    const EpochPlan& plan = chip.plan();
    for (int c = 0; c < 16; ++c) {
      EpochPlan::BankSet routed;
      for (const std::uint8_t b : plan.route[static_cast<std::size_t>(c)])
        routed.insert(b);
      ASSERT_EQ(plan.reach[static_cast<std::size_t>(c)].words, routed.words)
          << "core " << c << " after " << 5 * (step + 1) << " epochs";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, EveryScheme,
                         ::testing::ValuesIn(kAllSchemeKinds),
                         [](const auto& inf) {
                           std::string s(to_string(inf.param));
                           for (auto& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

TEST(EpochPlanProps, MasksFromEqualsEveryCoresWpMask) {
  // masks_from ORs each way into its owner's mask instead of asking the
  // WP unit per core.  Over random layouts — unowned ways, owners above
  // and below every core id, whole banks to one core — each published mask
  // must equal WpUnit::mask_of, and the bank's column must not leak into
  // its neighbours'.
  Rng rng(0x3a5u);
  for (int iter = 0; iter < 200; ++iter) {
    const int banks = iter % 2 == 0 ? 16 : 64;
    const int ways = 1 + static_cast<int>(rng.below(32));
    EpochPlan plan;
    plan.init(banks, 4, mem::full_mask(ways));
    const auto bank = static_cast<BankId>(rng.below(static_cast<std::uint64_t>(banks)));
    core::WpUnit wp(ways, kInvalidCore);
    const int owners = 1 + static_cast<int>(rng.below(4));
    for (int w = 0; w < ways; ++w) {
      const bool unowned = rng.below(static_cast<std::uint64_t>(owners) + 1) == 0;
      const auto core = static_cast<CoreId>(rng.below(static_cast<std::uint64_t>(banks)));
      wp.set_owner(w, unowned ? kInvalidCore : core);
    }
    if (iter % 7 == 0) wp.assign_all(static_cast<CoreId>(banks - 1));
    plan.masks_from(bank, wp);
    for (CoreId c = 0; c < banks; ++c) {
      ASSERT_EQ(plan.mask(c, bank), wp.mask_of(c)) << "iter " << iter << " core " << c;
      for (const BankId other : {(bank + 1) % banks, (bank + banks - 1) % banks}) {
        ASSERT_EQ(plan.mask(c, other), mem::full_mask(ways));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CARMA: auction-cleared per-core partitions enforced with WP/CBT state.
// ---------------------------------------------------------------------------

TEST(CarmaSchemeProps, WaysConservedAndHomeFloorHeld) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(SchemeKind::kCarma));
  for (int step = 0; step < 6; ++step) {
    chip.run_epochs(10, false);
    for (int bank = 0; bank < 16; ++bank) {
      const core::WpUnit* wp = chip.scheme().wp_unit(bank);
      ASSERT_NE(wp, nullptr);
      // Way conservation: every way has exactly one owner, all 16 accounted.
      int owned = 0;
      mem::WayMask all = 0;
      for (int c = 0; c < 16; ++c) {
        owned += wp->ways_of(c);
        all |= chip.plan().mask(c, bank);
      }
      EXPECT_EQ(owned, 16) << "bank " << bank;
      EXPECT_EQ(all, mem::full_mask(16)) << "bank " << bank << " has orphan ways";
      // Home floor: the bank's home core keeps its reserved minimum.
      EXPECT_GE(wp->ways_of(bank), cfg.delta.min_ways) << "bank " << bank;
    }
  }
}

TEST(CarmaSchemeProps, AuctionNeverOverspendsBudgets) {
  // Property fuzz over the allocator itself: whatever the curves look like,
  // spent[i] <= budgets[i], the floor/cap are honoured, and no more ways
  // are sold than exist.
  Rng rng(0xCA12A);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(15));
    alloc::AuctionRequest req;
    req.total_ways = n * 16;
    req.min_ways = 1 + static_cast<int>(rng.below(4));
    req.max_ways = rng.chance(0.3) ? 0 : 16 + static_cast<int>(rng.below(48));
    req.lot_ways = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n; ++i) {
      std::vector<double> misses(17);
      double m = 1000.0 + static_cast<double>(rng.below(9000));
      for (auto& v : misses) {
        v = m;
        m -= static_cast<double>(rng.below(120));
        if (m < 0.0) m = 0.0;
      }
      req.curves.emplace_back(std::move(misses));
      req.budgets.push_back(static_cast<double>(rng.below(200)));
    }
    const alloc::AuctionResult res = alloc::clear_auction(req);
    int sold = 0;
    for (int i = 0; i < n; ++i) {
      EXPECT_LE(res.spent[static_cast<std::size_t>(i)],
                req.budgets[static_cast<std::size_t>(i)] + 1e-12)
          << "trial " << trial << " app " << i;
      EXPECT_GE(res.ways[static_cast<std::size_t>(i)], req.min_ways);
      if (req.max_ways > 0) {
        EXPECT_LE(res.ways[static_cast<std::size_t>(i)], req.max_ways);
      }
      sold += res.ways[static_cast<std::size_t>(i)];
    }
    EXPECT_LE(sold, req.total_ways) << "trial " << trial;
    EXPECT_LE(res.rounds, res.bids) << "a lot can only sell to a bidder";

    // The clearing process is deterministic: same request, same result.
    const alloc::AuctionResult again = alloc::clear_auction(req);
    EXPECT_EQ(res.ways, again.ways);
    EXPECT_EQ(res.spent, again.spent);
  }
}

// ---------------------------------------------------------------------------
// LFOC: cluster slices shared within a cluster, partitioned across clusters.
// ---------------------------------------------------------------------------

TEST(LfocSchemeProps, ClusterPartitionsAreDisjointAndExhaustive) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(SchemeKind::kLfoc));
  for (int step = 0; step < 6; ++step) {
    chip.run_epochs(10, false);
    // Slices are identical in every bank; any two cores' masks are either
    // the same slice (same cluster) or disjoint, and together the slices
    // cover the whole bank.
    for (int bank = 0; bank < 16; ++bank) {
      std::vector<mem::WayMask> slices;
      mem::WayMask all = 0;
      for (int c = 0; c < 16; ++c) {
        const mem::WayMask m = chip.plan().mask(c, bank);
        EXPECT_NE(m, 0u) << "core " << c << " lost its insertion slice";
        all |= m;
        if (std::find(slices.begin(), slices.end(), m) == slices.end())
          slices.push_back(m);
        EXPECT_EQ(m, chip.plan().mask(c, 0))
            << "slice differs across banks for core " << c;
      }
      for (std::size_t i = 0; i < slices.size(); ++i)
        for (std::size_t j = i + 1; j < slices.size(); ++j)
          EXPECT_EQ(slices[i] & slices[j], 0u)
              << "clusters " << i << "/" << j << " overlap in bank " << bank;
      EXPECT_EQ(all, mem::full_mask(16)) << "bank " << bank << " not covered";
      EXPECT_LE(slices.size(), 3u);
    }
  }
}

TEST(LfocSchemeProps, NeverInvalidatesLines) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(SchemeKind::kLfoc));
  const MixResult r = chip.run("w-lfoc");
  EXPECT_EQ(r.invalidated_lines, 0u);
  EXPECT_EQ(r.traffic.total(noc::MsgType::kInvalidation), 0u);
  EXPECT_GT(r.control.central, 0u);  // It does reconfigure...
  EXPECT_EQ(r.control.market, 0u);   // ...but never through the auction.
}

TEST(DeltaSchemeProps, BankOwnershipAlwaysPartitionsEveryBank) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(SchemeKind::kDelta));
  for (int step = 0; step < 8; ++step) {
    chip.run_epochs(10, false);
    for (int bank = 0; bank < 16; ++bank) {
      mem::WayMask all = 0;
      for (int c = 0; c < 16; ++c) all |= chip.plan().mask(c, bank);
      EXPECT_EQ(all, mem::full_mask(16)) << "bank " << bank << " has orphan ways";
    }
  }
}

// ---- Flat miss-curve properties (the irregular-access family) ----
//
// A UMON watching a gather/hash-join/graph-walk kernel reports a curve
// with no cliff and almost no slope.  The allocator maths must degrade
// gracefully on such curves: Eq. 1/2 stay finite at every MLP and holding,
// the windowed gain correctly reads ~nothing (so DELTA never chases the
// kernel), and LFOC's clustering sends the application to a non-sensitive
// cluster instead of letting a near-zero CPI delta blow up a ratio.

umon::Umon umon_fed_by(const char* app, std::uint64_t accesses) {
  // The simulator's monitor geometry (umon.hpp defaults): 512-set slices,
  // 192 tracked ways, 1-in-16 set sampling — the same view DELTA's
  // controller allocates from.
  umon::Umon u{umon::UmonConfig{}};
  workload::TraceGen gen(workload::spec_profile(app), /*base_addr=*/0, /*seed=*/17);
  for (std::uint64_t i = 0; i < accesses; ++i) u.access(gen.next());
  return u;
}

TEST(FlatCurveProps, PainGainFiniteAndBelowThresholdOnIrregularKernels) {
  for (const char* app : {"sv", "hj", "bf", "pr", "gw"}) {
    const umon::Umon u = umon_fed_by(app, 400'000);
    // Sweep the risky denominators: tiny and huge MLP, every holding from
    // 4 ways up to the monitor's limit, remote holdings included.
    for (const double mlp : {0.1, 1.0, 4.0, 32.0}) {
      for (int cur = 4; cur <= 192; cur += 31) {
        const core::PainGain pg =
            core::compute_pain_gain(u, cur, cur / 2, 4, 4, mlp);
        ASSERT_TRUE(std::isfinite(pg.raw_gain)) << app << " mlp=" << mlp;
        ASSERT_TRUE(std::isfinite(pg.pain)) << app << " mlp=" << mlp;
        ASSERT_GE(pg.raw_gain, 0.0);
        ASSERT_GE(pg.pain, 0.0);
      }
    }
    // At nominal MLP the windowed gain reads the flat part of the curve as
    // not worth chasing: below the Table II gainThreshold.  The shallow
    // holdings are excluded deliberately — there the irregular traffic
    // dilutes the hot frontier/accumulator rings to deep stack positions,
    // so a small genuine gain exists; past ~2 MB (64 ways) nothing does.
    for (int cur = 72; cur <= 188; cur += 29) {
      const core::PainGain pg = core::compute_pain_gain(u, cur, 0, 4, 4, 2.0);
      EXPECT_LT(pg.raw_gain, 0.5)
          << app << ": flat curve reports a chaseable gain at " << cur << " ways";
    }
  }
}

TEST(FlatCurveProps, LfocClassifiesIrregularKernelsAsNonSensitive) {
  for (const char* app : {"sv", "hj", "bf", "pr", "gw"}) {
    const umon::Umon u = umon_fed_by(app, 400'000);
    const alloc::FairShareConfig fcfg;
    const alloc::CurveClass c = alloc::classify_curve(
        u.miss_curve(), static_cast<double>(u.sampled_accesses()), fcfg);
    EXPECT_NE(c, alloc::CurveClass::kSensitive) << app;
  }
  // The high-pressure kernels land in the thrashing cluster (they keep
  // missing at full capacity), so LFOC isolates rather than feeds them.
  const umon::Umon pr = umon_fed_by("pr", 400'000);
  EXPECT_EQ(alloc::classify_curve(pr.miss_curve(),
                                  static_cast<double>(pr.sampled_accesses()),
                                  alloc::FairShareConfig{}),
            alloc::CurveClass::kThrashing);
}

TEST(FlatCurveProps, ClassifierDegradesGracefullyOnDegenerateCurves) {
  const alloc::FairShareConfig fcfg;
  // A literally flat curve (every capacity misses equally) with modest
  // pressure: streaming cluster, no division blow-up on the zero CPI gap.
  umon::MissCurve flat(std::vector<double>(17, 100.0));
  EXPECT_EQ(alloc::classify_curve(flat, 10'000.0, fcfg),
            alloc::CurveClass::kStreaming);
  // The same shape under heavy pressure is thrashing, not sensitive.
  umon::MissCurve hot(std::vector<double>(17, 9'000.0));
  EXPECT_EQ(alloc::classify_curve(hot, 10'000.0, fcfg),
            alloc::CurveClass::kThrashing);
  // Zero sampling window: defined result (streaming), not NaN propagation.
  EXPECT_EQ(alloc::classify_curve(flat, 0.0, fcfg), alloc::CurveClass::kStreaming);
}

TEST(DeltaSchemeProps, CbtTargetsOnlyBanksWithOwnedWays) {
  MachineConfig cfg = tiny();
  Chip chip(cfg, apps16(), make_scheme(SchemeKind::kDelta));
  chip.run_epochs(60, false);
  Rng rng(11);
  for (int c = 0; c < 16; ++c) {
    for (int i = 0; i < 500; ++i) {
      const BankTarget t = chip.plan().target(c, rng());
      EXPECT_NE(chip.plan().mask(c, t.bank), 0u)
          << "core " << c << " maps to bank " << t.bank << " without ways";
    }
  }
}

}  // namespace
}  // namespace delta::sim
