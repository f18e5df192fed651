#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "json_check.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/outputs.hpp"
#include "obs/prof/export.hpp"
#include "obs/prof/prof.hpp"
#include "obs/recorder.hpp"
#include "sim/runner.hpp"

namespace delta::obs {
namespace {

/// The policy-event trace --trace-out writes: the one trace writer with no
/// profiler spans.
std::string policy_trace(const Observer& obs) { return prof::prof_trace_json({}, &obs); }

TEST(EventKind, EveryKindHasAName) {
  for (int k = 0; k < kNumEventKinds; ++k) {
    const auto name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "kind " << k << " missing a name";
  }
}

TEST(EventRecorder, RecordsFieldsInOrder) {
  EventRecorder rec(8);
  rec.set_run(2);
  rec.record(EventKind::kChallengeSent, 7, 3, 5, 11, 2, 1.5, -0.25);
  rec.record(EventKind::kRetreat, 9, 4);
  ASSERT_EQ(rec.size(), 2u);
  const Event e = rec.events()[0];  // events() returns a snapshot by value.
  EXPECT_EQ(e.kind, EventKind::kChallengeSent);
  EXPECT_EQ(e.epoch, 7u);
  EXPECT_EQ(e.run, 2);
  EXPECT_EQ(e.core, 3);
  EXPECT_EQ(e.bank, 5);
  EXPECT_EQ(e.other, 11);
  EXPECT_EQ(e.count, 2u);
  EXPECT_DOUBLE_EQ(e.a, 1.5);
  EXPECT_DOUBLE_EQ(e.b, -0.25);
  EXPECT_EQ(rec.events()[1].bank, -1);  // Defaulted optional fields.
  EXPECT_EQ(rec.count_of(EventKind::kRetreat), 1u);
  EXPECT_EQ(rec.count_of(EventKind::kWayTransfer), 0u);
}

TEST(EventRecorder, OverflowDropsNewestAndCounts) {
  EventRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.record(EventKind::kWayTransfer, static_cast<std::uint64_t>(i), i);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Oldest events are the ones kept.
  EXPECT_EQ(rec.events().front().epoch, 0u);
  EXPECT_EQ(rec.events().back().epoch, 3u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Observer, LevelGatesCollection) {
  Observer summary(ObsLevel::kSummary);
  EXPECT_FALSE(summary.timeline_enabled());
  EXPECT_EQ(summary.event_sink(), nullptr);

  Observer timeline(ObsLevel::kTimeline);
  EXPECT_TRUE(timeline.timeline_enabled());
  EXPECT_FALSE(timeline.events_enabled());

  Observer full(ObsLevel::kFull);
  EXPECT_TRUE(full.events_enabled());
  EXPECT_EQ(full.event_sink(), &full.events());
}

TEST(Observer, BeginRunStampsSubsequentRecords) {
  Observer obs(ObsLevel::kFull);
  EXPECT_EQ(obs.begin_run("first"), 0u);
  obs.events().record(EventKind::kRetreat, 1, 0);
  EXPECT_EQ(obs.begin_run("second"), 1u);
  obs.events().record(EventKind::kRetreat, 2, 0);
  ASSERT_EQ(obs.events().size(), 2u);
  EXPECT_EQ(obs.events().events()[0].run, 0);
  EXPECT_EQ(obs.events().events()[1].run, 1);
  EXPECT_EQ(obs.run_name(0), "first");
  EXPECT_EQ(obs.run_name(1), "second");
  EXPECT_EQ(obs.run_name(9), "run");  // Out of range falls back.
}

TEST(Export, JsonEscapeAndNum) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_num(0.5), "0.5");
  // Non-finite values must not leak into JSON output.
  EXPECT_EQ(json_num(0.0 / 0.0), "0");
  EXPECT_EQ(json_num(1.0 / 0.0), "0");
}

TEST(Export, EmptyObserverProducesValidTrace) {
  Observer obs(ObsLevel::kFull);
  std::string why;
  const std::string trace = policy_trace(obs);
  EXPECT_TRUE(test::is_valid_json(trace, &why)) << why;
  // No spans, so no engine-prof process or thread tracks either.
  EXPECT_EQ(trace.find("\"ph\":\"M\""), std::string::npos) << trace;
}

TEST(Export, HandBuiltTraceIsValidJsonWithExpectedEvents) {
  Observer obs(ObsLevel::kFull);
  obs.begin_run("delta");
  obs.events().record(EventKind::kChallengeSent, 3, 1, 4, 2, 0, 0.7, 0.1);
  obs.events().record(EventKind::kWayTransfer, 3, 1, 4, 2, 1, 0.7, 0.2);
  obs.events().record(EventKind::kBulkInvalidation, 5, 2, 6, -1, 37);
  obs.timeline().add_core(3, 1, "mc", 0.42, 17, 1000, 250, 80.0);
  obs.timeline().add_mcu(3, 0, 12, 0.5);
  obs.timeline().add_chip(3, 10, 2000, 1, 37);

  const std::string trace = policy_trace(obs);
  std::string why;
  ASSERT_TRUE(test::is_valid_json(trace, &why)) << why << "\n" << trace;
  EXPECT_NE(trace.find("\"challenge_sent\""), std::string::npos);
  EXPECT_NE(trace.find("\"way_transfer\""), std::string::npos);
  EXPECT_NE(trace.find("\"bulk_invalidation\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // Instant events carry the Chrome phase/scope markers and µs timestamps.
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
}

TEST(Export, TimelineCsvHeaderMatchesRowArity) {
  Observer obs(ObsLevel::kTimeline);
  obs.begin_run("delta");
  obs.timeline().add_core(3, 1, "mc", 0.42, 17, 1000, 250, 80.0);
  obs.timeline().add_mcu(3, 0, 12, 0.5);
  obs.timeline().add_chip(3, 10, 2000, 1, 37);
  const std::string csv = timeline_csv(obs);

  const auto fields = [](const std::string& line) {
    std::size_t n = 1;
    for (char c : line) n += c == ',' ? 1 : 0;
    return n;
  };
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == '\n') {
      if (i > start) lines.push_back(csv.substr(start, i - start));
      start = i + 1;
    }
  }
  ASSERT_EQ(lines.size(), 4u);  // Header + core + mcu + chip.
  EXPECT_EQ(lines[0], timeline_csv_header());
  for (const auto& line : lines) EXPECT_EQ(fields(line), fields(lines[0])) << line;
  EXPECT_EQ(lines[1].substr(0, 5), "core,");
  EXPECT_EQ(lines[2].substr(0, 4), "mcu,");
  EXPECT_EQ(lines[3].substr(0, 5), "chip,");
}

// Exporter lines are sized to fit: a run name over 1 KB lands whole in both
// the trace metadata and every timeline row.
TEST(Export, LongRunNameRoundTrips) {
  const std::string name(2000, 'r');
  Observer obs(ObsLevel::kFull);
  obs.begin_run(name);
  obs.timeline().add_core(3, 1, "mc", 0.42, 17, 1000, 250, 80.0);
  const std::string trace = policy_trace(obs);
  std::string why;
  ASSERT_TRUE(test::is_valid_json(trace, &why)) << why;
  EXPECT_NE(trace.find("\"name\":\"" + name + "\""), std::string::npos);
  EXPECT_NE(timeline_csv(obs).find("\ncore,0," + name + ",3,1,mc,"), std::string::npos);
}

// The output flags alone set the observer level, and every file path is
// checked before anything runs.
TEST(Outputs, RequestedOutputsSetTheLevel) {
  const auto level_for = [](std::vector<std::string> flags) {
    std::vector<char*> argv{const_cast<char*>("tool")};
    for (std::string& f : flags) argv.push_back(f.data());
    return Outputs(ArgParser(static_cast<int>(argv.size()), argv.data())).observer_level();
  };
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(level_for({}), std::nullopt);
  EXPECT_EQ(level_for({"--json"}), ObsLevel::kSummary);
  EXPECT_EQ(level_for({"--json", "--timeline-csv", dir + "t.csv"}), ObsLevel::kTimeline);
  EXPECT_EQ(level_for({"--trace-out", dir + "t.json"}), ObsLevel::kFull);
  EXPECT_EQ(level_for({"--prof-out", dir + "p.json"}), ObsLevel::kFull);
  EXPECT_EQ(level_for({"--metrics-out", dir + "m.json"}), std::nullopt);
  EXPECT_EQ(prof::level(), prof::ProfLevel::kFull);
  EXPECT_EQ(level_for({"--json", dir + "s.json"}), ObsLevel::kSummary);
  EXPECT_EQ(prof::level(), prof::ProfLevel::kOff);

  EXPECT_THROW(level_for({"--trace-out"}), std::invalid_argument);
  EXPECT_THROW(level_for({"--metrics-out", "--json"}), std::invalid_argument);
  EXPECT_THROW(level_for({"--json", "/no/such/dir/s.json"}), std::invalid_argument);
}

// End-to-end: a short heterogeneous run under the delta scheme must surface
// the policy activity the trace exists to show.
TEST(ObsIntegration, ShortDeltaRunEmitsPolicyEvents) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 10;
  cfg.measure_epochs = 40;
  const workload::Mix mix = sim::mix_for_config(cfg, "w2");

  Observer obs(ObsLevel::kFull);
  const sim::MixResult r =
      sim::run_mix(cfg, mix, sim::SchemeKind::kDelta, {}, &obs);
  EXPECT_GT(r.geomean_ipc, 0.0);

  EXPECT_GT(obs.events().count_of(EventKind::kChallengeSent), 0u);
  EXPECT_GT(obs.events().count_of(EventKind::kWayTransfer), 0u);
  EXPECT_GT(obs.events().count_of(EventKind::kBulkInvalidation), 0u);
  EXPECT_GT(obs.events().count_of(EventKind::kPainGainSample), 0u);
  EXPECT_GT(obs.events().count_of(EventKind::kCbtRebuild), 0u);

  // Timeline rows: one per active core and per MCU per measured epoch.
  const auto epochs = static_cast<std::size_t>(cfg.measure_epochs);
  EXPECT_EQ(obs.timeline().cores().size(), epochs * 16u);
  EXPECT_EQ(obs.timeline().chips().size(), epochs);
  EXPECT_FALSE(obs.timeline().mcus().empty());

  // Events carry the chip's absolute epoch (warmup + measured; the final
  // end-of-epoch reconfiguration lands on the closing boundary) and valid
  // tile ids.
  const auto last_epoch =
      static_cast<std::uint64_t>(cfg.warmup_epochs + cfg.measure_epochs);
  for (const Event& e : obs.events().events()) {
    EXPECT_LE(e.epoch, last_epoch);
    EXPECT_GE(e.core, -1);
    EXPECT_LT(e.core, 16);
  }

  std::string why;
  const std::string trace = policy_trace(obs);
  ASSERT_TRUE(test::is_valid_json(trace, &why)) << why;
  EXPECT_NE(trace.find("\"challenge_sent\""), std::string::npos);
  EXPECT_NE(trace.find("\"way_transfer\""), std::string::npos);
  EXPECT_NE(trace.find("\"bulk_invalidation\""), std::string::npos);
}

// The same run with a summary-level observer collects no events or samples.
TEST(ObsIntegration, SummaryLevelObserverCollectsNoEvents) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w2");

  Observer obs(ObsLevel::kSummary);
  (void)sim::run_mix(cfg, mix, sim::SchemeKind::kDelta, {}, &obs);
  EXPECT_EQ(obs.events().size(), 0u);
  EXPECT_TRUE(obs.timeline().empty());
  ASSERT_EQ(obs.run_names().size(), 1u);  // Run list still tracks the run.
}

}  // namespace
}  // namespace delta::obs
