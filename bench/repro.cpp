// Reproduction driver: the paper's figures and tables (Sec. IV, Figs. 5-13,
// Tables V-VI, Sec. IV-E2), the six-scheme literature shootout over the
// Table IV and irregular-access mixes, the DELTA-knob and CBT ablations and
// the under-utilised-chip extension, all from one table of entries.
//
// Each entry declares the simulations it needs as sim::SweepJobs.  The
// driver pools the jobs of the requested entries, drops duplicates by value
// (fig06 reads fig05's runs, fig07/08 two of its mixes, the shootout every
// paper-scheme run of fig05/fig09, cbt the ablation's baseline ...), runs
// each distinct job once through sim::run_sweep and hands every renderer
// its own results in declaration order.  Work that is not a mix run (12,
// table5, table6, cbt's footprint spread) computes inside its renderer.
//
// Usage: repro [--fig ID[,ID...]] [--jobs N] [--prof-*]
//   --fig    entries to render, always in table order: 5..13, table5,
//            table6, msg, shootout, ablation, cbt, underutilized (default:
//            all of them).
// The report goes to stdout; redirect it to keep it.  tests/golden/repro.txt
// holds the full report, less its host timings (tools/repro_golden.py).  One
// stderr line, `repro: N runs requested, M distinct`, reports the reuse.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "alloc/lookahead.hpp"
#include "alloc/peekahead.hpp"
#include "bench_util.hpp"
#include "common/appendf.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "mem/address.hpp"
#include "sim/splash_estimator.hpp"
#include "workload/generator.hpp"
#include "workload/mixes.hpp"
#include "workload/spec.hpp"
#include "workload/splash.hpp"

namespace {

using namespace delta;

using Results = std::vector<sim::MixResult>;
using Row = std::span<const sim::MixResult>;

/// Slots of a kPaperSchemeKinds row.
enum PaperScheme : std::size_t { kSnuca, kPrivate, kIdeal, kDelta };

constexpr std::array<sim::SchemeKind, 1> kDeltaOnly = {sim::SchemeKind::kDelta};

/// Table IV mix names in order.
std::vector<std::string> table4() {
  std::vector<std::string> out;
  for (const workload::Mix& m : workload::table4_mixes()) out.push_back(m.name);
  return out;
}

/// One job per (mix, scheme), mix-major like sim::run_schemes: result
/// [m * kinds.size() + k] is names[m] under kinds[k].
std::vector<sim::SweepJob> scheme_jobs(const sim::MachineConfig& cfg,
                                       const std::vector<std::string>& names,
                                       std::span<const sim::SchemeKind> kinds) {
  std::vector<sim::SweepJob> jobs;
  for (const std::string& name : names) {
    const workload::Mix mix = sim::mix_for_config(cfg, name);
    for (const sim::SchemeKind kind : kinds) jobs.push_back({cfg, mix, kind, {}});
  }
  return jobs;
}

/// Mix `m`'s slice of a scheme_jobs result.
Row row(const Results& r, std::size_t m, std::size_t kinds) {
  return Row(r).subspan(m * kinds, kinds);
}

/// Geomean-of-speedups summary line across mixes.
void speedup_summary(std::string& out, const char* label, const std::vector<double>& v) {
  double max = 0.0;
  for (const double s : v) max = std::max(max, s);
  appendf(out, "%-16s geomean %+.1f%%  max %+.1f%%\n", label, (geomean(v) - 1.0) * 100.0,
          (max - 1.0) * 100.0);
}

std::vector<sim::SweepJob> no_jobs() { return {}; }

// --- Fig. 5 / Fig. 9: the mixes on 16 / 64 cores vs S-NUCA ----------------
//
// Paper: 16 cores DELTA +9% geomean (max +16%), ideal centralized +12% (max
// +22%), private +3%.  64 cores DELTA +16% (max +28%), ideal +17% (max
// +35%); the gap narrows and DELTA matches or beats ideal on several mixes.

std::vector<sim::SweepJob> mixes16() {
  return scheme_jobs(sim::config16(), table4(), sim::kPaperSchemeKinds);
}

std::vector<sim::SweepJob> mixes64() {
  return scheme_jobs(sim::config64(), table4(), sim::kPaperSchemeKinds);
}

/// The speedup table and summaries of Figs. 5 and 9; returns the number of
/// mixes where DELTA is on par with or better than ideal.
int speedup_table(std::string& out, const Results& r) {
  TextTable table({"mix", "private", "ideal", "delta"});
  std::vector<double> sp_priv, sp_ideal, sp_delta;
  int delta_wins = 0;
  const std::vector<std::string> names = table4();
  for (std::size_t m = 0; m < names.size(); ++m) {
    const Row c = row(r, m, sim::kPaperSchemeKinds.size());
    const double pr = sim::speedup(c[kPrivate], c[kSnuca]);
    const double i = sim::speedup(c[kIdeal], c[kSnuca]);
    const double d = sim::speedup(c[kDelta], c[kSnuca]);
    sp_priv.push_back(pr);
    sp_ideal.push_back(i);
    sp_delta.push_back(d);
    if (d >= i - 0.005) ++delta_wins;
    table.add_row({names[m], fmt(pr, 3), fmt(i, 3), fmt(d, 3)});
  }
  appendf(out, "\nSpeedup over unpartitioned S-NUCA (1.000 = parity):\n%s\n",
          table.str().c_str());
  speedup_summary(out, "private", sp_priv);
  speedup_summary(out, "ideal-central", sp_ideal);
  speedup_summary(out, "delta", sp_delta);
  return delta_wins;
}

std::string fig05(const Results& r, unsigned) {
  std::string out =
      bench::header("Fig. 5 — 16-core multi-programmed mixes", "Sec. IV-A, Fig. 5");
  (void)speedup_table(out, r);
  appendf(out, "\npaper: private +3%% | ideal +12%% (max +22%%) | delta +9%% (max +16%%)\n");
  return out;
}

std::string fig09(const Results& r, unsigned) {
  std::string out =
      bench::header("Fig. 9 — 64-core multi-programmed mixes", "Sec. IV-B, Fig. 9");
  const int delta_wins = speedup_table(out, r);
  appendf(out, "mixes where DELTA is on par/better than ideal: %d (paper: 7)\n", delta_wins);
  appendf(out, "\npaper: delta +16%% (max +28%%) | ideal +17%% (max +35%%)\n");
  return out;
}

// --- Fig. 6: fairness (ANTT) and throughput (STP), ideal vs DELTA ---------
//
// Paper: DELTA trails the ideal scheme by ~2% in ANTT and ~5% in STP on
// average (lower ANTT = fairer, higher STP = more throughput).

std::string fig06(const Results& r, unsigned) {
  std::string out = bench::header(
      "Fig. 6 — ANTT / STP, ideal centralized vs DELTA (16 cores)", "Sec. IV-A, Fig. 6");
  TextTable table({"mix", "antt(ideal)", "antt(delta)", "stp(ideal)", "stp(delta)"});
  std::vector<double> antt_ratio, stp_ratio;
  const std::vector<std::string> names = table4();
  for (std::size_t m = 0; m < names.size(); ++m) {
    const Row c = row(r, m, sim::kPaperSchemeKinds.size());
    const double ai = sim::antt(c[kIdeal], c[kPrivate]);
    const double ad = sim::antt(c[kDelta], c[kPrivate]);
    const double si = sim::stp(c[kIdeal], c[kPrivate]);
    const double sd = sim::stp(c[kDelta], c[kPrivate]);
    antt_ratio.push_back(ad / ai);
    stp_ratio.push_back(sd / si);
    table.add_row({names[m], fmt(ai, 3), fmt(ad, 3), fmt(si, 2), fmt(sd, 2)});
  }
  appendf(out, "\n%s\n", table.str().c_str());
  appendf(out,
          "delta vs ideal: ANTT %+0.1f%% (paper: +2%%, lower is better), "
          "STP %+0.1f%% (paper: -5%%, higher is better)\n",
          (geomean(antt_ratio) - 1.0) * 100.0, (geomean(stp_ratio) - 1.0) * 100.0);
  return out;
}

// --- Figs. 7 / 8: per-application performance on 16 cores ----------------
//
// Paper, w2: most applications on par; the farsighted ideal scheme beats
// DELTA by ~45%/~35% on xalancbmk and soplex (miss-curve cliffs DELTA's
// windowed gain cannot see), while DELTA still beats private there
// (+12%/+36%).  w3 (thrashing + low-sensitive): applications mostly do as
// well as or better than under the centralized scheme.

std::vector<sim::SweepJob> w2_16() {
  return scheme_jobs(sim::config16(), {"w2"}, sim::kPaperSchemeKinds);
}

std::vector<sim::SweepJob> w3_16() {
  return scheme_jobs(sim::config16(), {"w3"}, sim::kPaperSchemeKinds);
}

std::string fig07(const Results& c, unsigned) {
  std::string out = bench::header("Fig. 7 — per-application performance, w2, 16 cores",
                                  "Sec. IV-A, Fig. 7");
  TextTable table({"core", "app", "ideal/delta", "private/delta", "ways(ideal)", "ways(delta)"});
  for (std::size_t i = 0; i < c[kDelta].apps.size(); ++i) {
    const auto& d = c[kDelta].apps[i];
    table.add_row({std::to_string(i), d.app, fmt(c[kIdeal].apps[i].ipc / d.ipc, 3),
                   fmt(c[kPrivate].apps[i].ipc / d.ipc, 3),
                   fmt(c[kIdeal].apps[i].avg_ways, 1), fmt(d.avg_ways, 1)});
  }
  appendf(out, "\n%s\n", table.str().c_str());
  appendf(out,
          "paper: ideal beats delta by ~45%%/~35%% on xalancbmk/soplex "
          "(farsighted vs nearsighted); delta beats private there.\n");
  return out;
}

std::string fig08(const Results& c, unsigned) {
  std::string out = bench::header("Fig. 8 — per-application performance, w3, 16 cores",
                                  "Sec. IV-A, Fig. 8");
  TextTable table({"core", "app", "ideal/delta", "private/delta"});
  std::vector<double> ratios;
  for (std::size_t i = 0; i < c[kDelta].apps.size(); ++i) {
    const auto& d = c[kDelta].apps[i];
    const double r = c[kIdeal].apps[i].ipc / d.ipc;
    ratios.push_back(r);
    table.add_row(
        {std::to_string(i), d.app, fmt(r, 3), fmt(c[kPrivate].apps[i].ipc / d.ipc, 3)});
  }
  appendf(out, "\n%s\n", table.str().c_str());
  appendf(out, "geomean ideal/delta = %.3f (paper: ~1.0 — DELTA on par on w3)\n",
          geomean(ratios));
  return out;
}

// --- Figs. 10 / 11: per-application performance on 64 cores ---------------
//
// Each application appears 4x (the mix is replicated); rows are per-slot
// geomeans over the four replicas.  Paper, w2: the 16-core trend again.
// w13: the farsighted allocator gives >250 ways to lbm/libquantum (their
// loops fit the 768-way cap) and starves the rest; DELTA never chases those
// far cliffs and beats ideal overall.

std::vector<sim::SweepJob> w2_64() {
  return scheme_jobs(sim::config64(), {"w2"}, sim::kPaperSchemeKinds);
}

std::vector<sim::SweepJob> w13_64() {
  return scheme_jobs(sim::config64(), {"w13"}, sim::kPaperSchemeKinds);
}

std::string fig10(const Results& c, unsigned) {
  std::string out = bench::header("Fig. 10 — per-application performance, w2, 64 cores",
                                  "Sec. IV-B, Fig. 10");
  TextTable table({"slot", "app", "ideal/delta", "private/delta"});
  for (int slot = 0; slot < 16; ++slot) {
    std::vector<double> ideal_r, priv_r;
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t core = static_cast<std::size_t>(slot + rep * 16);
      const double d = c[kDelta].apps[core].ipc;
      ideal_r.push_back(c[kIdeal].apps[core].ipc / d);
      priv_r.push_back(c[kPrivate].apps[core].ipc / d);
    }
    table.add_row({std::to_string(slot), c[kDelta].apps[static_cast<std::size_t>(slot)].app,
                   fmt(geomean(ideal_r), 3), fmt(geomean(priv_r), 3)});
  }
  appendf(out, "\nPer-slot geomean over the 4 replicas:\n%s\n", table.str().c_str());
  return out;
}

std::string fig11(const Results& c, unsigned) {
  std::string out = bench::header("Fig. 11 — per-application performance, w13, 64 cores",
                                  "Sec. IV-B, Fig. 11");
  TextTable table({"slot", "app", "ideal/delta", "ways(ideal)", "ways(delta)"});
  for (int slot = 0; slot < 16; ++slot) {
    std::vector<double> ideal_r;
    double wi = 0.0, wd = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t core = static_cast<std::size_t>(slot + rep * 16);
      ideal_r.push_back(c[kIdeal].apps[core].ipc / c[kDelta].apps[core].ipc);
      wi += c[kIdeal].apps[core].avg_ways / 4.0;
      wd += c[kDelta].apps[core].avg_ways / 4.0;
    }
    table.add_row({std::to_string(slot), c[kDelta].apps[static_cast<std::size_t>(slot)].app,
                   fmt(geomean(ideal_r), 3), fmt(wi, 1), fmt(wd, 1)});
  }
  appendf(out, "\nPer-slot geomean over the 4 replicas:\n%s\n", table.str().c_str());
  appendf(out,
          "workload speedup vs S-NUCA: ideal %.3f, delta %.3f "
          "(paper: delta > ideal on w13)\n",
          sim::speedup(c[kIdeal], c[kSnuca]), sim::speedup(c[kDelta], c[kSnuca]));
  return out;
}

// --- Fig. 12: SPLASH2 on 16 cores (piecewise estimate) --------------------
//
// Paper: over the suite DELTA averages within 1% of both baselines; per app
// the result tracks the private/shared ratio — water.nsq (~all-private)
// gains ~6% over S-NUCA, lu.ncont (~all-shared) matches S-NUCA while the
// private configuration loses ~10%.

std::string fig12(const Results&, unsigned jobs) {
  std::string out = bench::header("Fig. 12 — SPLASH2 on 16 cores (piecewise estimate)",
                                  "Sec. IV-C, Fig. 12");
  TextTable table({"app", "priv-pages%", "delta/snuca", "private/snuca"});
  const sim::MachineConfig cfg = sim::config16();
  const auto& profiles = workload::splash_profiles();
  const std::vector<sim::SplashEstimate> estimates =
      bench::parallel_map(profiles.size(), jobs,
                          [&](std::size_t i) { return sim::estimate_splash(profiles[i], cfg); });
  std::vector<double> delta_sp, priv_sp;
  for (const sim::SplashEstimate& e : estimates) {
    delta_sp.push_back(e.delta_speedup);
    priv_sp.push_back(e.private_speedup);
    table.add_row({e.app, fmt(e.private_pages_pct, 1), fmt(e.delta_speedup, 3),
                   fmt(e.private_speedup, 3)});
  }
  appendf(out, "\nSpeedup over S-NUCA:\n%s\n", table.str().c_str());
  appendf(out,
          "suite geomean: delta %.3f, private %.3f "
          "(paper: delta within ~1%% of both baselines on average)\n",
          geomean(delta_sp), geomean(priv_sp));
  return out;
}

// --- Fig. 13: reconfiguration frequency of the ideal centralized scheme ---
//
// Paper: allocating every 1 ms instead of every 100 ms does not help every
// workload but clearly improves several (phase adaptation) — the case for
// DELTA's cheap frequent reconfigurations.

const std::vector<std::string> kFig13Mixes = {"w1", "w2", "w3", "w4", "w5"};

std::vector<sim::SweepJob> fig13_jobs() {
  sim::MachineConfig cfg = sim::config16();
  // Long enough that several application phases elapse (gcc/mcf/omnetpp
  // switch every 150-200 epochs = 15-20 ms).
  cfg.measure_epochs = 600;
  sim::SchemeOptions fast;
  fast.central_interval_epochs = 10;  // 1 ms.
  sim::SchemeOptions slow;
  slow.central_interval_epochs = 1000;  // 100 ms.
  std::vector<sim::SweepJob> jobs;
  for (const std::string& name : kFig13Mixes) {
    const workload::Mix mix = sim::mix_for_config(cfg, name);
    jobs.push_back({cfg, mix, sim::SchemeKind::kSnuca, {}});
    jobs.push_back({cfg, mix, sim::SchemeKind::kIdealCentralized, fast});
    jobs.push_back({cfg, mix, sim::SchemeKind::kIdealCentralized, slow});
  }
  return jobs;
}

std::string fig13(const Results& r, unsigned) {
  std::string out = bench::header("Fig. 13 — reconfiguration frequency (ideal centralized)",
                                  "Sec. IV-D, Fig. 13");
  TextTable table({"mix", "1ms", "100ms", "1ms/100ms"});
  std::vector<double> ratios;
  for (std::size_t m = 0; m < kFig13Mixes.size(); ++m) {
    const Row c = row(r, m, 3);
    const double f = sim::speedup(c[1], c[0]);
    const double s = sim::speedup(c[2], c[0]);
    ratios.push_back(f / s);
    table.add_row({kFig13Mixes[m], fmt(f, 3), fmt(s, 3), fmt(f / s, 3)});
  }
  appendf(out, "\nSpeedup over S-NUCA at each allocation frequency:\n%s\n",
          table.str().c_str());
  appendf(out,
          "geomean 1ms/100ms = %.3f (paper: frequent allocation helps "
          "several workloads, hurts none badly)\n",
          geomean(ratios));
  return out;
}

// --- Table V: private pages/blocks per SPLASH2 application ----------------
//
// Each synthetic generator streamed through the sharing instrumentation (the
// paper's pintool equivalent).  Targets marked '~' are estimates: the block
// row of Table V is partially unreadable in our source text and was
// gap-filled (see DESIGN.md).

std::string table5(const Results&, unsigned jobs) {
  std::string out = bench::header("Table V — private pages/blocks per SPLASH2 app",
                                  "Sec. IV-C, Table V");
  TextTable table(
      {"app", "pages% (meas)", "pages% (paper)", "blocks% (meas)", "blocks% (paper)"});
  const auto& profiles = workload::splash_profiles();
  const std::vector<workload::SharingMeasurement> measured =
      bench::parallel_map(profiles.size(), jobs, [&](std::size_t i) {
        return workload::measure_sharing(profiles[i], 800'000, 7);
      });
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    const workload::SharingMeasurement& m = measured[i];
    table.add_row({p.name, fmt(m.private_pages_pct, 1), fmt(p.target_private_pages_pct, 1),
                   fmt(m.private_blocks_pct, 1),
                   (p.block_target_estimated ? "~" : "") +
                       fmt(p.target_private_blocks_pct, 1)});
  }
  appendf(out, "\n%s\n", table.str().c_str());
  return out;
}

// --- Table VI: allocation-algorithm overhead per invocation ---------------
//
// Lookahead and Peekahead for 2..64 cores at 16 ways per core, measured on
// this host, plus the software cost of DELTA's inter- and intra-bank
// algorithms (paper: 0.015 ms / 0.007 ms at 64 cores, three orders of
// magnitude below Lookahead's 1230 ms).  Absolute times differ from the
// paper's host; the growth shape is the target: Lookahead super-quadratic,
// Peekahead ~N*W, DELTA constant per tile.

double time_ms(const std::function<void()>& fn, int reps) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

// Convex miss curves (diminishing marginal utility — the common shape of
// real cache-sensitive applications): Lookahead's best expansion is then a
// single way per award, which is exactly the regime where its O(N*W^2)
// full rescan per award dominates and Peekahead's hull short-cut pays off.
alloc::AllocRequest make_request(int cores, Rng& rng) {
  alloc::AllocRequest req;
  const int total = cores * 16;
  for (int a = 0; a < cores; ++a) {
    std::vector<double> m(static_cast<std::size_t>(total) + 1);
    const double base = 1000.0 + rng.uniform() * 9000.0;
    const double rate = 0.05 + rng.uniform() * 0.5;
    for (int w = 0; w <= total; ++w) m[static_cast<std::size_t>(w)] = base / (1.0 + rate * w);
    req.curves.emplace_back(std::move(m));
  }
  req.total_ways = total;
  req.min_ways = 1;
  return req;
}

std::string table6(const Results&, unsigned) {
  std::string out = bench::header("Table VI — allocation-algorithm overhead per invocation",
                                  "Sec. IV-E1, Table VI");
  Rng rng(2024);
  TextTable table({"cores", "lookahead(ms)", "peekahead(ms)", "la steps", "pa steps"});
  for (int cores : {2, 4, 8, 16, 32, 64}) {
    const alloc::AllocRequest req = make_request(cores, rng);
    const int reps = cores <= 8 ? 20 : (cores <= 16 ? 5 : 1);
    alloc::AllocResult la, pa;
    const double t_la = time_ms([&] { la = alloc::lookahead(req); }, reps);
    const double t_pa = time_ms([&] { pa = alloc::peekahead(req); }, reps);
    table.add_row({std::to_string(cores), fmt(t_la, 3), fmt(t_pa, 3),
                   std::to_string(la.steps), std::to_string(pa.steps)});
  }
  appendf(out, "\n%s\n", table.str().c_str());

  // DELTA's software cost at 64 cores: one full inter+intra tick.
  noc::Mesh mesh(8, 8);
  core::DeltaParams params;
  params.max_ways_per_app = 768;
  core::DeltaController ctrl(mesh, params, 16);
  umon::UmonConfig ucfg;
  ucfg.max_ways = 768;
  std::vector<umon::Umon> umons;
  umons.reserve(64);
  Rng wr(7);
  for (int i = 0; i < 64; ++i) {
    umons.emplace_back(ucfg);
    for (int a = 0; a < 20'000; ++a) umons.back().access(wr.below(512 * 32));
  }
  std::vector<core::TileInput> inputs(64);
  for (int i = 0; i < 64; ++i)
    inputs[i] = {&umons[static_cast<std::size_t>(i)], 2.0, true};
  std::uint64_t e = 0;
  const double t_delta = time_ms(
      [&] {
        ctrl.tick(e, inputs);
        e += 10;  // Every call hits both the inter and intra cadence.
      },
      50);
  appendf(out, "DELTA inter+intra tick, 64 tiles: %.4f ms per invocation\n", t_delta);
  appendf(out,
          "(paper: lookahead 1230 ms, peekahead 13.1 ms, DELTA 0.015+0.007 ms "
          "at 64 cores — expect the same orders-of-magnitude ordering)\n");
  return out;
}

// --- Sec. IV-E2: DELTA control traffic vs demand on 16 cores --------------
//
// Paper: worst case 352 control messages per 1 ms interval vs ~320 K demand
// messages — ~0.1% overhead.

const std::vector<std::string> kMsgMixes = {"w2", "w6", "w12"};

std::vector<sim::SweepJob> msg_jobs() {
  return scheme_jobs(sim::config16(), kMsgMixes, kDeltaOnly);
}

std::string msg(const Results& r, unsigned) {
  std::string out = bench::header("Message overheads — DELTA control traffic vs demand",
                                  "Sec. IV-E2");
  const double inter_epochs = sim::config16().delta.inter_interval_epochs;
  TextTable table({"mix", "ctrl/1ms", "demand/1ms", "overhead%"});
  for (std::size_t m = 0; m < kMsgMixes.size(); ++m) {
    const sim::MixResult& res = r[m];
    const double intervals = static_cast<double>(res.measured_epochs) / inter_epochs;
    const double ctrl = static_cast<double>(res.traffic.control_messages() +
                                            res.traffic.invalidation_messages()) /
                        intervals;
    const double demand = static_cast<double>(res.traffic.demand_messages()) / intervals;
    table.add_row({kMsgMixes[m], fmt(ctrl, 1), fmt(demand, 0), fmt(100.0 * ctrl / demand, 4)});
  }
  appendf(out, "\nPer 1 ms reconfiguration interval:\n%s\n", table.str().c_str());

  // The paper's analytic worst case for a 16-core CMP.
  const int n = 16;
  const int centralized = 2 * n;
  const int delta_worst = 2 * n /*intra*/ + n * 10 * 2 /*inter*/;
  appendf(out,
          "analytic worst case (paper): centralized %d msgs, DELTA %d msgs, "
          "~320K L2-miss msgs per interval -> ~0.1%%\n",
          centralized, delta_worst);
  return out;
}

// --- Shootout: all six schemes at both machine sizes ----------------------
//
// Not a paper figure: pits DELTA against the market-based (CARMA) and
// fairness-clustering (LFOC) allocator families under identical workloads —
// throughput (speedup vs S-NUCA), fairness (ANTT) and throughput-sum (STP)
// vs the private baseline, and the control-plane traffic each scheme pays.
// The irregular-access mixes wi1..wi3 run too: gather/scatter (spmv),
// hash-join and graph-traversal kernels whose flat miss curves probe the
// failure mode DELTA's gain threshold exists for (capacity buys them
// nothing, so a good allocator starves them) and where the allocator
// families disagree the most.

/// The Table IV mixes, then the irregular-access ones.
std::vector<std::string> shootout_mixes() {
  std::vector<std::string> names = table4();
  for (const workload::Mix& m : workload::irregular_mixes()) names.push_back(m.name);
  return names;
}

/// Six-scheme jobs on every shootout mix at 16 tiles, then at 64 tiles.
std::vector<sim::SweepJob> shootout_jobs() {
  const std::vector<std::string> names = shootout_mixes();
  std::vector<sim::SweepJob> jobs = scheme_jobs(sim::config16(), names, sim::kAllSchemeKinds);
  const std::vector<sim::SweepJob> big =
      scheme_jobs(sim::config64(), names, sim::kAllSchemeKinds);
  jobs.insert(jobs.end(), big.begin(), big.end());
  return jobs;
}

struct SchemeAgg {
  std::vector<double> speedups;  // vs snuca, per mix.
  std::vector<double> antts;     // vs private, per mix.
  std::vector<double> stps;      // vs private, per mix.
  std::uint64_t control = 0;     // Control-plane messages, all mixes.
  std::uint64_t demand = 0;      // Demand messages, all mixes.
};

/// One machine size of the shootout; `r` holds its names.size() rows.
void shootout_at(std::string& out, const char* title, const std::vector<std::string>& names,
                 Row r) {
  const std::size_t kinds = sim::kAllSchemeKinds.size();
  // Per-mix tables: speedup over unpartitioned S-NUCA (snuca == 1.000), and
  // the three allocator families' ANTT/STP vs private.
  TextTable table({"mix", "private", "ideal", "delta", "carma", "lfoc"});
  TextTable fair(
      {"mix", "delta antt", "delta stp", "carma antt", "carma stp", "lfoc antt", "lfoc stp"});
  std::vector<SchemeAgg> agg(kinds);
  for (std::size_t m = 0; m < names.size(); ++m) {
    const Row c = r.subspan(m * kinds, kinds);
    std::vector<std::string> cells = {names[m]};
    std::vector<std::string> fcells = {names[m]};
    for (std::size_t k = 0; k < kinds; ++k) {
      agg[k].speedups.push_back(sim::speedup(c[k], c[0]));
      agg[k].antts.push_back(sim::antt(c[k], c[1]));
      agg[k].stps.push_back(sim::stp(c[k], c[1]));
      agg[k].control += c[k].control.total();
      agg[k].demand += c[k].traffic.demand_messages();
      if (k > 0) cells.push_back(fmt(agg[k].speedups.back(), 3));
      if (k >= kDelta) {  // delta, carma, lfoc
        fcells.push_back(fmt(agg[k].antts.back(), 3));
        fcells.push_back(fmt(agg[k].stps.back(), 2));
      }
    }
    table.add_row(cells);
    fair.add_row(fcells);
  }
  appendf(out,
          "\n== %s ==\nSpeedup over unpartitioned S-NUCA (1.000 = parity):\n%s"
          "\nFairness/throughput vs private (ANTT lower / STP higher is better):\n%s",
          title, table.str().c_str(), fair.str().c_str());

  // Per-scheme summary: geomean throughput, fairness, control overhead.
  TextTable sum({"scheme", "speedup", "antt", "stp", "ctl msgs", "ctl/demand"});
  for (std::size_t k = 0; k < kinds; ++k) {
    const double ratio = agg[k].demand > 0 ? 100.0 * static_cast<double>(agg[k].control) /
                                                 static_cast<double>(agg[k].demand)
                                           : 0.0;
    sum.add_row({std::string(sim::to_string(sim::kAllSchemeKinds[k])),
                 fmt(geomean(agg[k].speedups), 3), fmt(geomean(agg[k].antts), 3),
                 fmt(geomean(agg[k].stps), 2), std::to_string(agg[k].control),
                 fmt(ratio, 3) + "%"});
  }
  appendf(out,
          "\nPer-scheme summary (ANTT lower / STP higher is better; "
          "geomeans across mixes):\n%s",
          sum.str().c_str());
}

std::string shootout(const Results& r, unsigned) {
  std::string out = bench::header("Scheme shootout — DELTA vs CARMA vs LFOC (+3 baselines)",
                                  "literature comparison (docs/schemes.md)");
  const std::vector<std::string> names = shootout_mixes();
  const std::size_t half = names.size() * sim::kAllSchemeKinds.size();
  shootout_at(out, "16 tiles", names, Row(r).first(half));
  shootout_at(out, "64 tiles", names, Row(r).subspan(half));
  out += "\n";
  return out;
}

// --- Ablations: DELTA's Table II knobs and the CBT bit reversal on w6 -----
//
// Not paper figures: the design choices DESIGN.md calls out as worth
// isolating, each swept alone on a representative 16-core mix.  Both entries
// read one S-NUCA run on the base config: S-NUCA reads no DELTA or UMON knob
// (test_sim's SnucaIgnoresDeltaAndUmonKnobs), so that run is every knob
// point's baseline, and a knob point at its default value is the base DELTA
// run.

/// The 16-tile machine of the ablation and under-utilisation studies:
/// 40 warmup and 150 measured epochs.
sim::MachineConfig study16() {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 40;
  cfg.measure_epochs = 150;
  return cfg;
}

struct KnobPoint {
  std::string section;
  std::string label;
  sim::MachineConfig cfg;
};

/// Every (knob, value) point, section by section:
///   gainThreshold  — how eager tiles are to challenge;
///   interDeltaWays — granularity of inter-bank capacity grants;
///   intraDeltaWays — granularity of intra-bank fine-tuning;
///   i_inter        — challenge frequency;
///   coarse_ways    — UMON counter granularity (Sec. II-B3).
std::vector<KnobPoint> knob_points(const sim::MachineConfig& base) {
  std::vector<KnobPoint> points;
  for (double thr : {0.0, 0.25, 0.5, 1.0, 2.0, 8.0}) {
    sim::MachineConfig cfg = base;
    cfg.delta.gain_threshold = thr;
    points.push_back({"gainThreshold", fmt(thr, 2), cfg});
  }
  for (int w : {1, 2, 4, 8}) {
    sim::MachineConfig cfg = base;
    cfg.delta.inter_delta_ways = w;
    points.push_back({"interDeltaWays", std::to_string(w), cfg});
  }
  for (int w : {1, 2, 4}) {
    sim::MachineConfig cfg = base;
    cfg.delta.intra_delta_ways = w;
    points.push_back({"intraDeltaWays", std::to_string(w), cfg});
  }
  for (int epochs : {5, 10, 20, 50, 100}) {
    sim::MachineConfig cfg = base;
    cfg.delta.inter_interval_epochs = epochs;
    points.push_back({"i_inter (ms)", fmt(epochs * 0.1, 1), cfg});
  }
  for (int cw : {1, 2, 4, 8, 16}) {
    sim::MachineConfig cfg = base;
    cfg.umon.coarse_ways = cw;
    points.push_back({"UMON coarse_ways", std::to_string(cw), cfg});
  }
  return points;
}

/// The shared S-NUCA baseline, then one DELTA run per knob point.
std::vector<sim::SweepJob> ablation_jobs() {
  const sim::MachineConfig base = study16();
  const workload::Mix mix = sim::mix_for_config(base, "w6");
  std::vector<sim::SweepJob> jobs = {{base, mix, sim::SchemeKind::kSnuca, {}}};
  for (const KnobPoint& k : knob_points(base))
    jobs.push_back({k.cfg, mix, sim::SchemeKind::kDelta, {}});
  return jobs;
}

std::string ablation(const Results& r, unsigned) {
  std::string out = bench::header("Ablation — DELTA parameter sensitivity (mix w6, 16 cores)",
                                  "DESIGN.md ablation index (not a paper figure)");
  const std::vector<KnobPoint> points = knob_points(study16());
  std::size_t i = 0;
  while (i < points.size()) {
    const std::string& section = points[i].section;
    TextTable t({section, section == "gainThreshold" ? "speedup vs snuca" : "speedup"});
    for (; i < points.size() && points[i].section == section; ++i)
      t.add_row({points[i].label, fmt(sim::speedup(r[i + 1], r[0]), 3)});
    appendf(out, "\n%s", t.str().c_str());
  }
  appendf(out,
          "\n(paper Sec. II-B3: the coarse 4-way counters trade counter storage\n"
          "for window resolution; the ablation shows the performance cost.)\n");
  return out;
}

// The CBT indexing choice (Sec. II-C1): the paper reverses the 8
// bank-selection bits so the high-entropy low bits become the most
// significant, spreading each application's footprint uniformly over its CBT
// ranges.  Measured as (a) footprint spread across chunk space and (b)
// end-to-end DELTA performance with and without the reversal.

/// S-NUCA, DELTA reversed (the base run), DELTA straight.
std::vector<sim::SweepJob> cbt_jobs() {
  const sim::MachineConfig cfg = study16();
  sim::MachineConfig straight = cfg;
  straight.delta.reverse_chunk_bits = false;
  const workload::Mix mix = sim::mix_for_config(cfg, "w6");
  return {{cfg, mix, sim::SchemeKind::kSnuca, {}},
          {cfg, mix, sim::SchemeKind::kDelta, {}},
          {straight, mix, sim::SchemeKind::kDelta, {}}};
}

/// CV over *contiguous 16-chunk ranges* — what actually matters: a CBT
/// range covering 1/16 of chunk space should see 1/16 of the accesses.
double range_spread_cv(const workload::AppProfile& p, bool reverse) {
  workload::TraceGen gen(p, 0, 9);
  double counts[16] = {};
  constexpr int kAccesses = 400'000;
  for (int i = 0; i < kAccesses; ++i)
    counts[mem::chunk_of(gen.next(), 9, reverse) / 16] += 1.0;
  double mean = 0.0;
  for (double c : counts) mean += c / 16.0;
  double var = 0.0;
  for (double c : counts) var += (c - mean) * (c - mean) / 16.0;
  return std::sqrt(var) / mean;
}

std::string cbt(const Results& r, unsigned jobs) {
  std::string out = bench::header("Ablation — CBT bank-selection bit reversal",
                                  "Sec. II-C1 design-choice study (not a paper figure)");
  const std::vector<const char*> apps = {"mc", "om", "xa", "hm", "li", "Ge"};
  const std::vector<std::array<double, 2>> cvs =
      bench::parallel_map(apps.size(), jobs, [&](std::size_t i) {
        const auto& p = workload::spec_profile(apps[i]);
        return std::array<double, 2>{range_spread_cv(p, true), range_spread_cv(p, false)};
      });
  TextTable spread({"app", "range-CV reversed", "range-CV straight"});
  for (std::size_t i = 0; i < apps.size(); ++i)
    spread.add_row(
        {workload::spec_profile(apps[i]).name, fmt(cvs[i][0], 3), fmt(cvs[i][1], 3)});
  appendf(out, "\nFootprint spread over contiguous CBT ranges (lower = more even):\n%s\n",
          spread.str().c_str());
  appendf(out, "DELTA speedup vs S-NUCA on w6:  reversed %.3f   straight %.3f\n",
          sim::speedup(r[1], r[0]), sim::speedup(r[2], r[0]));
  appendf(out,
          "(the paper keeps the reversal: straight indexing concentrates a\n"
          "sequential footprint in few ranges, unbalancing bank pressure)\n");
  return out;
}

// --- Under-utilised chips: the idle-bank fast path ------------------------
//
// Not a paper figure: the paper argues (Sec. II-B1 and IV-B) that
// private/equal partitioning "cannot handle underutilized scenarios" while
// DELTA's idle-bank fast path hands unused home banks to whoever can use
// them.  The number of occupied tiles on the 16-core machine scales, and the
// three organisations compare on the *occupied* cores.

const std::vector<int> kOccupancies = {2, 4, 8, 16};

/// S-NUCA, private and DELTA per occupancy, occupancy-major.
std::vector<sim::SweepJob> underutilized_jobs() {
  const sim::MachineConfig cfg = study16();
  // Occupied tiles run cache-hungry LM apps that can exploit spare banks.
  const std::vector<std::string> hungry = {"mc", "om", "so", "xa", "bz", "sp", "de", "gc"};
  std::vector<sim::SweepJob> jobs;
  for (const int occupied : kOccupancies) {
    workload::Mix mix;
    mix.name = "occ" + std::to_string(occupied);
    mix.apps.assign(16, "idle");
    for (int i = 0; i < occupied; ++i)
      mix.apps[static_cast<std::size_t>((i * 16) / occupied)] =
          hungry[static_cast<std::size_t>(i) % hungry.size()];
    for (const sim::SchemeKind kind :
         {sim::SchemeKind::kSnuca, sim::SchemeKind::kPrivate, sim::SchemeKind::kDelta})
      jobs.push_back({cfg, mix, kind, {}});
  }
  return jobs;
}

std::string underutilized(const Results& r, unsigned) {
  std::string out = bench::header("Extension — under-utilised chip (idle-bank fast path)",
                                  "Sec. II-B1 idle-bank discussion / Sec. IV-B private critique");
  TextTable table({"occupied", "snuca", "private", "delta", "delta ways/app"});
  for (std::size_t m = 0; m < kOccupancies.size(); ++m) {
    const Row c = row(r, m, 3);
    double ways = 0.0;
    int n = 0;
    for (const auto& a : c[2].apps)
      if (a.llc_accesses > 0) {
        ways += a.avg_ways;
        ++n;
      }
    table.add_row({std::to_string(kOccupancies[m]), fmt(c[0].geomean_ipc, 3),
                   fmt(c[1].geomean_ipc, 3), fmt(c[2].geomean_ipc, 3),
                   fmt(n ? ways / n : 0.0, 1)});
  }
  appendf(out, "\nGeomean IPC of the occupied cores:\n%s\n", table.str().c_str());
  appendf(out,
          "private wastes the idle tiles' capacity (fixed 16 ways/app);\n"
          "DELTA's idle-bank grabs recover much of it (40 ways/app at 2/16\n"
          "occupancy) while keeping data near the occupied tiles.  It stops\n"
          "short of S-NUCA's full 8 MB per app: Eq. 1's (k+1)^-1 fairness\n"
          "damping deliberately brakes unbounded expansion.\n");
  return out;
}

// --- The table -------------------------------------------------------------

/// One figure or table: the jobs it needs and the report it prints from
/// their results (same order).  `jobs` is the --jobs thread count.
struct Entry {
  const char* id;
  std::vector<sim::SweepJob> (*jobs)();
  std::string (*render)(const Results&, unsigned jobs);
};

constexpr Entry kEntries[] = {
    {"5", mixes16, fig05},
    {"6", mixes16, fig06},
    {"7", w2_16, fig07},
    {"8", w3_16, fig08},
    {"9", mixes64, fig09},
    {"10", w2_64, fig10},
    {"11", w13_64, fig11},
    {"12", no_jobs, fig12},
    {"13", fig13_jobs, fig13},
    {"table5", no_jobs, table5},
    {"table6", no_jobs, table6},
    {"msg", msg_jobs, msg},
    {"shootout", shootout_jobs, shootout},
    {"ablation", ablation_jobs, ablation},
    {"cbt", cbt_jobs, cbt},
    {"underutilized", underutilized_jobs, underutilized},
};

/// The entries --fig names, in table order; all of them without --fig.
std::vector<const Entry*> select_entries(const bench::Cli& cli) {
  std::vector<const Entry*> out;
  if (!cli.has("fig")) {
    for (const Entry& e : kEntries) out.push_back(&e);
    return out;
  }
  const std::string list = cli.get("fig");
  std::vector<std::string> ids;
  for (std::size_t at = 0;;) {
    const std::size_t comma = std::min(list.find(',', at), list.size());
    ids.push_back(list.substr(at, comma - at));
    if (comma == list.size()) break;
    at = comma + 1;
  }
  std::string known;
  for (const Entry& e : kEntries) known += std::string(known.empty() ? "" : ",") + e.id;
  for (const std::string& id : ids) {
    if (id.empty()) cli.fail("empty id in --fig '" + list + "'");
    if (std::none_of(std::begin(kEntries), std::end(kEntries),
                     [&](const Entry& e) { return id == e.id; }))
      cli.fail("unknown --fig id '" + id + "' (known: " + known + ")");
  }
  for (const Entry& e : kEntries)
    if (std::find(ids.begin(), ids.end(), e.id) != ids.end()) out.push_back(&e);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv, {"fig"});
  const std::vector<const Entry*> entries = select_entries(cli);

  // Pool every entry's jobs; slots[e][i] is the distinct job behind entry
  // e's i-th job.
  std::vector<sim::SweepJob> distinct;
  std::vector<std::vector<std::size_t>> slots;
  std::size_t requested = 0;
  for (const Entry* e : entries) {
    std::vector<std::size_t>& slot = slots.emplace_back();
    for (const sim::SweepJob& job : e->jobs()) {
      const auto it = std::find(distinct.begin(), distinct.end(), job);
      slot.push_back(static_cast<std::size_t>(it - distinct.begin()));
      if (it == distinct.end()) distinct.push_back(job);
    }
    requested += slot.size();
  }
  std::fprintf(stderr, "repro: %zu runs requested, %zu distinct\n", requested,
               distinct.size());
  const Results results = sim::run_sweep(distinct, cli.jobs());

  for (std::size_t e = 0; e < entries.size(); ++e) {
    Results mine;
    for (const std::size_t i : slots[e]) mine.push_back(results[i]);
    std::fputs(entries[e]->render(mine, cli.jobs()).c_str(), stdout);
    std::fflush(stdout);
  }
  return cli.finish(0);
}
