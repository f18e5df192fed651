// Self-profiling subsystem (src/obs/prof): level gating, span/site
// collection, the metrics registry's determinism contract, exporter
// formats, and — the load-bearing property — byte-identical simulation
// results with profiling off vs full at any thread count.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "obs/observer.hpp"
#include "obs/prof/export.hpp"
#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace delta {
namespace {

using obs::prof::Phase;
using obs::prof::ProfLevel;
using obs::prof::Profiler;
using obs::prof::Site;

/// The profiler and registry are process-wide; every test starts from a
/// clean span store and level kOff (registered metric names persist — the
/// registry never removes metrics — which the tests account for).
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

TEST_F(ProfTest, LevelOffCollectsNothing) {
  {
    const obs::prof::ScopedSpan span(Phase::kEpoch, 1);
    const obs::prof::ScopedSite site(Site::kAccessBatch);
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_TRUE(snap.spans.empty());
  for (const obs::prof::SiteTotal& s : snap.sites) EXPECT_EQ(s.calls, 0u);
}

TEST_F(ProfTest, FullLevelCollectsSpansAndSites) {
  obs::prof::set_level(ProfLevel::kFull);
  {
    const obs::prof::ScopedSpan span(Phase::kEpoch, 7);
    const obs::prof::ScopedSite site(Site::kAccessBatch);
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.level, ProfLevel::kFull);
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].phase, Phase::kEpoch);
  EXPECT_EQ(snap.spans[0].arg, 7u);
  EXPECT_EQ(snap.sites[static_cast<std::size_t>(Site::kAccessBatch)].calls, 1u);
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

// ------------------------------------------------------------------ registry

TEST_F(ProfTest, RegistryHandlesAreStableAndSharedByName) {
  auto& reg = obs::prof::MetricsRegistry::global();
  obs::prof::Counter& a = reg.counter("test_prof_counter", "help a");
  obs::prof::Counter& b = reg.counter("test_prof_counter", "ignored on re-reg");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);

  obs::prof::Gauge& g = reg.gauge("test_prof_gauge", "g");
  g.set(2.5);
  obs::prof::HistogramMetric& h = reg.histogram("test_prof_hist", "h");
  h.observe(1000, 2);

  const obs::prof::RegistrySnapshot snap = reg.snapshot();
  const obs::prof::MetricSample* cs = snap.find("test_prof_counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_DOUBLE_EQ(cs->value, 7.0);
  const obs::prof::MetricSample* gs = snap.find("test_prof_gauge");
  ASSERT_NE(gs, nullptr);
  EXPECT_DOUBLE_EQ(gs->value, 2.5);
  const obs::prof::MetricSample* hs = snap.find("test_prof_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->hist.total(), 2u);

  // Export order is name order — deterministic however threads registered.
  for (std::size_t i = 1; i < snap.metrics.size(); ++i)
    EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);

  reg.reset_values();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().total(), 0u);
}

TEST_F(ProfTest, SnapshotIsIsolatedFromLaterUpdates) {
  auto& reg = obs::prof::MetricsRegistry::global();
  obs::prof::Counter& c = reg.counter("test_prof_isolation", "c");
  reg.reset_values();
  c.add(5);
  const obs::prof::RegistrySnapshot snap = reg.snapshot();
  c.add(100);
  ASSERT_NE(snap.find("test_prof_isolation"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("test_prof_isolation")->value, 5.0);
}

// ----------------------------------------------------------------- exporters

TEST_F(ProfTest, MetricsJsonIsValidJson) {
  obs::prof::set_level(ProfLevel::kFull);
  { obs::prof::ScopedSpan span(Phase::kEpoch, 0); }
  { obs::prof::ScopedSite site(Site::kApplyBank); }
  const std::string json = obs::prof::metrics_json(
      obs::prof::MetricsRegistry::global().snapshot(),
      Profiler::instance().snapshot());
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
  obs::prof::MetricsRegistry::global().reset_values();
  obs::prof::set_level(ProfLevel::kFull);
  sim::run_mix(cfg, sim::mix_for_config(cfg, "w2"), sim::SchemeKind::kDelta);
  obs::prof::set_level(ProfLevel::kOff);

  const obs::prof::RegistrySnapshot reg =
      obs::prof::MetricsRegistry::global().snapshot();
  const obs::prof::MetricSample* frac =
      reg.find("delta_intra_barrier_wait_fraction");
  ASSERT_NE(frac, nullptr);
  EXPECT_GE(frac->value, 0.0);
  EXPECT_LE(frac->value, 1.0);
  const obs::prof::MetricSample* imb =
      reg.find("delta_intra_worker_imbalance_ratio");
  ASSERT_NE(imb, nullptr);
  EXPECT_GE(imb->value, 1.0);  // max/mean busy is >= 1 by construction.
  const obs::prof::MetricSample* epochs = reg.find("delta_intra_epochs_total");
  ASSERT_NE(epochs, nullptr);
  EXPECT_DOUBLE_EQ(epochs->value, 15.0);  // 5 warmup + 10 measured.
  // Structural, identical on every host: each epoch runs one stage and one
  // reduce task per core and one apply task per bank, 48 on 16 tiles.
  const obs::prof::MetricSample* tasks = reg.find("delta_intra_tasks_total");
  ASSERT_NE(tasks, nullptr);
  EXPECT_DOUBLE_EQ(tasks->value, 15.0 * 48.0);
  const obs::prof::MetricSample* steals = reg.find("delta_intra_steal_fraction");
  ASSERT_NE(steals, nullptr);
  EXPECT_GE(steals->value, 0.0);
  EXPECT_LE(steals->value, 1.0);
  const obs::prof::MetricSample* occ =
      reg.find("delta_intra_bank_buffer_occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_GT(occ->hist.total(), 0u);
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
