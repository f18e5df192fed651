// Self-profiling subsystem (src/obs/prof): level gating, span/site
// collection, the engine totals and the ratios exported from them,
// exporter formats, and — the load-bearing property — byte-identical
// simulation results with profiling off vs full at any thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "json_check.hpp"
#include "obs/observer.hpp"
#include "obs/prof/export.hpp"
#include "obs/prof/prof.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace delta {
namespace {

using obs::prof::Counter;
using obs::prof::Hist;
using obs::prof::Phase;
using obs::prof::ProfLevel;
using obs::prof::Profiler;
using obs::prof::Site;

/// The profiler is process-wide; every test starts from a clean store and
/// level kOff.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::prof::set_level(ProfLevel::kOff);
    Profiler::instance().clear();
  }
  void TearDown() override {
    obs::prof::set_level(ProfLevel::kOff);
    Profiler::instance().clear();
  }
};

/// The number exported under `name` in a metrics_json dump.
double exported(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("\"" + name + "\": ");
  EXPECT_NE(at, std::string::npos) << name;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + name.size() + 4, nullptr);
}

TEST_F(ProfTest, LevelOffCollectsNothing) {
  {
    const obs::prof::ScopedSpan span(Phase::kEpoch, 1);
    const obs::prof::ScopedSite site(Site::kStageCore);
  }
  // The engine records its counters only while profiling is on, too.
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 2;
  cfg.intra_jobs = 2;
  (void)sim::run_mix(cfg, sim::mix_for_config(cfg, "w2"), sim::SchemeKind::kDelta);
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_TRUE(snap.spans.empty());
  for (const obs::prof::SiteTotal& s : snap.sites) EXPECT_EQ(s.calls, 0u);
  for (const std::uint64_t c : snap.engine.counts) EXPECT_EQ(c, 0u);
  for (const LogHistogram& h : snap.engine.hists) EXPECT_EQ(h.total(), 0u);
}

TEST_F(ProfTest, FullLevelCollectsSpansAndSites) {
  obs::prof::set_level(ProfLevel::kFull);
  {
    const obs::prof::ScopedSpan span(Phase::kEpoch, 7);
    const obs::prof::ScopedSite site(Site::kStageCore);
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.level, ProfLevel::kFull);
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].phase, Phase::kEpoch);
  EXPECT_EQ(snap.spans[0].arg, 7u);
  EXPECT_EQ(snap.sites[static_cast<std::size_t>(Site::kStageCore)].calls, 1u);
}

TEST_F(ProfTest, StopEndsSpanEarlyAndIsIdempotent) {
  obs::prof::set_level(ProfLevel::kFull);
  {
    obs::prof::ScopedSpan span(Phase::kPolicy, 3);
    span.stop();
    span.stop();  // Second stop and the destructor must not re-record.
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.spans.size(), 1u);
}

TEST_F(ProfTest, SpansFromManyThreadsMergeSeqSorted) {
  obs::prof::set_level(ProfLevel::kFull);
  constexpr int kThreads = 4, kSpansEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i)
        obs::prof::ScopedSpan span(Phase::kSweepJob, static_cast<std::uint64_t>(i));
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  ASSERT_EQ(snap.spans.size(), static_cast<std::size_t>(kThreads * kSpansEach));
  for (std::size_t i = 1; i < snap.spans.size(); ++i)
    EXPECT_LT(snap.spans[i - 1].seq, snap.spans[i].seq);
  // Thread slots are stable ids: every span carries one of kThreads tids.
  std::vector<bool> seen(64, false);
  for (const obs::prof::Span& s : snap.spans) seen[s.tid % 64] = true;
}

TEST_F(ProfTest, SweepIdleShareIsThreadTimeNoJobRan) {
  // Two threads over a 100 ns sweep and jobs of 80 + 90 ns: 30 of the 200
  // thread-ns ran no job.  Other phases do not enter it.
  obs::prof::ProfSnapshot snap;
  EXPECT_EQ(snap.sweep_idle_share(), 0.0);
  snap.spans = {{0, 0, 100, 2, 0, Phase::kSweep},
                {1, 0, 80, 0, 0, Phase::kSweepJob},
                {2, 5, 90, 1, 1, Phase::kSweepJob},
                {3, 5, 50, 0, 1, Phase::kEpoch}};
  EXPECT_DOUBLE_EQ(snap.sweep_idle_share(), 0.15);

  // run_sweep records one sweep span whose arg is the threads it ran on.
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 2;
  cfg.measure_epochs = 3;
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  obs::prof::set_level(ProfLevel::kFull);
  (void)sim::run_sweep({{cfg, mix, sim::SchemeKind::kSnuca, {}},
                        {cfg, mix, sim::SchemeKind::kPrivate, {}},
                        {cfg, mix, sim::SchemeKind::kDelta, {}}},
                       2);
  obs::prof::set_level(ProfLevel::kOff);
  const obs::prof::ProfSnapshot live = Profiler::instance().snapshot();
  std::size_t sweeps = 0;
  for (const obs::prof::Span& s : live.spans)
    if (s.phase == Phase::kSweep) {
      ++sweeps;
      EXPECT_EQ(s.arg, 2u);
    }
  EXPECT_EQ(sweeps, 1u);
  EXPECT_GE(live.sweep_idle_share(), 0.0);
  EXPECT_LT(live.sweep_idle_share(), 1.0);
}

TEST_F(ProfTest, SiteAggregationAccumulates) {
  obs::prof::set_level(ProfLevel::kFull);
  for (int i = 0; i < 10; ++i)
    obs::prof::ScopedSite site(Site::kStageCore);
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  const obs::prof::SiteTotal& s =
      snap.sites[static_cast<std::size_t>(Site::kStageCore)];
  EXPECT_EQ(s.calls, 10u);
  EXPECT_EQ(s.hist.total(), 10u);
  EXPECT_GE(s.ns, s.hist.sum() == 0 ? 0u : 1u);
}

TEST_F(ProfTest, PhaseNsSumsOnlyThatPhase) {
  obs::prof::set_level(ProfLevel::kFull);
  { obs::prof::ScopedSpan a(Phase::kStage, 0); }
  { obs::prof::ScopedSpan b(Phase::kApply, 0); }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.phase_ns(Phase::kStage) + snap.phase_ns(Phase::kApply),
            snap.spans[0].dur_ns + snap.spans[1].dur_ns);
  EXPECT_EQ(snap.phase_ns(Phase::kReduce), 0u);
}

// ------------------------------------------------------------- engine totals

TEST_F(ProfTest, SnapshotIsIsolatedFromLaterUpdates) {
  obs::prof::EngineTotals t;
  t[Counter::kTasks] = 5;
  t[Hist::kBufferOccupancy].add(3);
  Profiler::instance().add_engine(t);
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  Profiler::instance().add_engine(t);
  EXPECT_EQ(snap.engine[Counter::kTasks], 5u);
  EXPECT_EQ(snap.engine[Hist::kBufferOccupancy].total(), 1u);
  EXPECT_EQ(Profiler::instance().snapshot().engine[Counter::kTasks], 10u);
  Profiler::instance().clear();
  EXPECT_EQ(Profiler::instance().snapshot().engine[Counter::kTasks], 0u);
}

TEST_F(ProfTest, EpochBarrierHistogramIsEachEpochsOwnFraction) {
  // Ten pool sections, one epoch each.  In the first, worker 0 sleeps
  // ~20 ms while worker 1 idles at the barrier (fraction ~0.5); in the
  // other nine both sleep ~2 ms (fraction ~0).  A cumulative record falls
  // only from 0.5 to about 0.26, so nearly every sample lands at or above
  // 2^18 ppm; an epoch's own fraction gets there only when one 2 ms sleep
  // oversleeps the other by about 2 ms, which leaves room for a loaded host.
  obs::prof::set_level(ProfLevel::kFull);
  obs::prof::EngineProfile profile(2);
  {
    WorkerPool pool(2);
    pool.set_hooks(&profile);
    for (std::uint64_t epoch = 0; epoch < 10; ++epoch) {
      profile.begin_section(epoch);
      pool.run([epoch](unsigned w) {
        if (epoch == 0 && w == 1) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(epoch == 0 ? 20 : 2));
      });
      profile.end_section();
      profile.end_epoch(2, 0);
    }
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  const LogHistogram& ppm = snap.engine[Hist::kEpochBarrierPpm];
  ASSERT_EQ(ppm.total(), 10u);
  std::uint64_t high = 0;  // Samples >= 2^18 ppm: bucket 19 and up.
  for (std::size_t b = 19; b < LogHistogram::kBuckets; ++b) high += ppm.count(b);
  EXPECT_LE(high, 2u);
  EXPECT_EQ(snap.engine[Counter::kEpochs], 10u);
  EXPECT_EQ(snap.engine[Counter::kTasks], 20u);
}

TEST_F(ProfTest, MultiRunDumpsAddUp) {
  // Two simulations in one process: every total is the sum over both, and
  // the exported ratios come from those totals.
  sim::MachineConfig a = sim::config16();
  a.warmup_epochs = 5;
  a.measure_epochs = 10;
  a.intra_jobs = 2;
  sim::MachineConfig b = a;
  b.warmup_epochs = 3;
  b.measure_epochs = 4;
  obs::prof::set_level(ProfLevel::kFull);
  (void)sim::run_sweep({{a, sim::mix_for_config(a, "w2"), sim::SchemeKind::kDelta, {}},
                        {b, sim::mix_for_config(b, "w6"), sim::SchemeKind::kSnuca, {}}},
                       2);
  obs::prof::set_level(ProfLevel::kOff);
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  // Each epoch runs one stage and one reduce task per core and one apply
  // task per bank: 48 on 16 tiles.
  EXPECT_EQ(snap.engine[Counter::kEpochs], 15u + 7u);
  EXPECT_EQ(snap.engine[Counter::kTasks], (15u + 7u) * 48u);
  EXPECT_EQ(snap.engine[Hist::kEpochBarrierPpm].total(), 15u + 7u);

  const std::string json = obs::prof::metrics_json(snap);
  const double tasks = exported(json, "delta_intra_tasks_total");
  EXPECT_EQ(tasks, (15.0 + 7.0) * 48.0);
  EXPECT_NEAR(exported(json, "delta_intra_steal_fraction"),
              exported(json, "delta_intra_tasks_stolen_total") / tasks, 1e-5);
  const double barrier = exported(json, "delta_intra_barrier_wait_fraction");
  EXPECT_GE(barrier, 0.0);
  EXPECT_LE(barrier, 1.0);
}

// ----------------------------------------------------------------- exporters

TEST_F(ProfTest, MetricsJsonIsValidJson) {
  obs::prof::set_level(ProfLevel::kFull);
  { obs::prof::ScopedSpan span(Phase::kEpoch, 0); }
  { obs::prof::ScopedSite site(Site::kApplyBank); }
  const std::string json = obs::prof::metrics_json(Profiler::instance().snapshot());
  std::string why;
  EXPECT_TRUE(test::is_valid_json(json, &why)) << why;
  EXPECT_NE(json.find("\"schema\": \"delta-prof-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep_idle_share\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
}

TEST_F(ProfTest, TraceJsonMergesSpansAndPolicyEvents) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  cfg.intra_jobs = 2;
  obs::prof::set_level(ProfLevel::kFull);
  obs::Observer observer(obs::ObsLevel::kFull);
  sim::run_mix(cfg, sim::mix_for_config(cfg, "w2"), sim::SchemeKind::kDelta, {},
               &observer);
  obs::prof::set_level(ProfLevel::kOff);

  const std::string trace =
      obs::prof::prof_trace_json(Profiler::instance().snapshot(), &observer);
  std::string why;
  ASSERT_TRUE(test::is_valid_json(trace, &why)) << why;
  // One timeline: prof spans ("X" on the dedicated prof pid) next to the
  // policy instants ("i" on the run pids).
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"stage\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"apply\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"reduce\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"barrier\""), std::string::npos);

  // Without an observer the trace still stands alone as valid JSON.
  const std::string solo =
      obs::prof::prof_trace_json(Profiler::instance().snapshot());
  EXPECT_TRUE(test::is_valid_json(solo, &why)) << why;
}

// -------------------------------------------------------- engine integration

TEST_F(ProfTest, DerivedEngineMetricsAreSane) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  cfg.intra_jobs = 4;
  obs::prof::set_level(ProfLevel::kFull);
  sim::run_mix(cfg, sim::mix_for_config(cfg, "w2"), sim::SchemeKind::kDelta);
  obs::prof::set_level(ProfLevel::kOff);

  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  const std::string json = obs::prof::metrics_json(snap);
  const double frac = exported(json, "delta_intra_barrier_wait_fraction");
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  // max/mean busy is >= 1 by construction: every per-epoch sample is at
  // least 1000 milli.
  EXPECT_GE(exported(json, "delta_intra_worker_imbalance_ratio"), 1.0);
  EXPECT_EQ(snap.engine[Counter::kEpochs], 15u);  // 5 warmup + 10 measured.
  // Structural, identical on every host: each epoch runs one stage and one
  // reduce task per core and one apply task per bank, 48 on 16 tiles.
  EXPECT_EQ(snap.engine[Counter::kTasks], 15u * 48u);
  const double steals = exported(json, "delta_intra_steal_fraction");
  EXPECT_GE(steals, 0.0);
  EXPECT_LE(steals, 1.0);
  EXPECT_GT(snap.engine[Hist::kBufferOccupancy].total(), 0u);
  EXPECT_EQ(snap.engine[Counter::kBufferPairs], 15u * 16u * 16u);
}

TEST_F(ProfTest, ResultsAreByteIdenticalWithProfilingOnOrOff) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w2");
  const auto summary = [&](int intra_jobs, ProfLevel lvl) {
    sim::MachineConfig c = cfg;
    c.intra_jobs = intra_jobs;
    obs::prof::set_level(lvl);
    const sim::MixResult r = sim::run_mix(c, mix, sim::SchemeKind::kDelta);
    obs::prof::set_level(ProfLevel::kOff);
    return sim::json_summary({&r, 1});
  };
  const std::string baseline = summary(1, ProfLevel::kOff);
  EXPECT_EQ(baseline, summary(1, ProfLevel::kFull)) << "serial engine diverged";
  EXPECT_EQ(baseline, summary(2, ProfLevel::kOff)) << "intra engine diverged";
  EXPECT_EQ(baseline, summary(2, ProfLevel::kFull))
      << "profiling changed intra-engine results";
  EXPECT_EQ(baseline, summary(4, ProfLevel::kFull))
      << "profiling changed 4-way intra results";
}

}  // namespace
}  // namespace delta
