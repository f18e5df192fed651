// Observer: the run-wide observability context handed to the simulator.
//
// Holds the event recorder and epoch sampler plus the list of runs (one per
// scheme execution) so a single trace/CSV can span a `--scheme all`
// comparison.  The level gates what gets collected (obs/outputs.hpp derives
// it from the requested outputs):
//
//   kSummary  — run names only (enough for the end-of-run JSON summary).
//   kTimeline — + per-epoch core/MCU/chip samples.
//   kFull     — + the policy event trace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/timeline.hpp"

namespace delta::obs {

enum class ObsLevel : int { kSummary = 0, kTimeline = 1, kFull = 2 };

constexpr std::string_view to_string(ObsLevel l) {
  switch (l) {
    case ObsLevel::kSummary: return "summary";
    case ObsLevel::kTimeline: return "timeline";
    case ObsLevel::kFull: return "full";
  }
  return "?";
}

class Observer {
 public:
  explicit Observer(ObsLevel level,
                    std::size_t event_capacity = EventRecorder::kDefaultCapacity)
      : level_(level), events_(event_capacity) {}

  ObsLevel level() const { return level_; }
  bool events_enabled() const { return level_ >= ObsLevel::kFull; }
  bool timeline_enabled() const { return level_ >= ObsLevel::kTimeline; }

  /// Starts a new run (e.g. one scheme of a comparison); subsequent events
  /// and samples are stamped with the returned run index.
  std::uint32_t begin_run(std::string name) {
    run_names_.push_back(std::move(name));
    const auto run = static_cast<std::uint32_t>(run_names_.size() - 1);
    events_.set_run(static_cast<std::uint8_t>(run));
    timeline_.set_run(run);
    return run;
  }

  const std::vector<std::string>& run_names() const { return run_names_; }
  std::string_view run_name(std::uint32_t run) const {
    return run < run_names_.size() ? std::string_view(run_names_[run])
                                   : std::string_view("run");
  }

  EventRecorder& events() { return events_; }
  const EventRecorder& events() const { return events_; }
  TimelineSampler& timeline() { return timeline_; }
  const TimelineSampler& timeline() const { return timeline_; }

  /// Recorder pointer for emission sites: null when events are off, so the
  /// per-event cost of a disabled trace is one pointer test.
  EventRecorder* event_sink() { return events_enabled() ? &events_ : nullptr; }

  /// Appends `other`'s runs (names, events, timeline samples) after this
  /// observer's, re-stamping run indices past the existing ones.  Merging
  /// per-job observers in job order reproduces exactly the trace a serial
  /// multi-run execution would have built: nothing in a trace carries wall
  /// time, so ordering is run-major by construction either way.  The two
  /// observers should share a level; events disabled on either side simply
  /// contribute nothing.
  void merge_from(const Observer& other) {
    const auto offset = static_cast<std::uint32_t>(run_names_.size());
    for (const std::string& n : other.run_names()) run_names_.push_back(n);
    events_.append_from(other.events(), static_cast<std::uint8_t>(offset));
    timeline_.append_from(other.timeline(), offset);
  }

 private:
  ObsLevel level_;
  EventRecorder events_;
  TimelineSampler timeline_;
  std::vector<std::string> run_names_;
};

}  // namespace delta::obs
