#include "obs/outputs.hpp"

#include <cerrno>
#include <stdexcept>
#include <system_error>

#include "common/args.hpp"
#include "obs/export.hpp"
#include "obs/prof/export.hpp"

namespace delta::obs {

Outputs::File Outputs::open(const ArgParser& args, const char* flag) {
  File file;
  if (!args.has(flag)) return file;
  file.path = args.get(flag);
  if (file.path.empty())
    throw std::invalid_argument(std::string("--") + flag + " needs a file path");
  file.f.reset(std::fopen(file.path.c_str(), "w"));
  if (file.f == nullptr)
    throw std::invalid_argument(std::string("cannot write --") + flag + " '" +
                                file.path + "': " + std::generic_category().message(errno));
  return file;
}

Outputs::Outputs(const ArgParser& args) {
  summary_stdout_ = args.has("json") && args.get("json").empty();
  if (!summary_stdout_) summary_ = open(args, "json");
  timeline_ = open(args, "timeline-csv");
  trace_ = open(args, "trace-out");
  prof_ = open(args, "prof-out");
  metrics_ = open(args, "metrics-out");

  // --prof-out merges the policy events into the flamegraph, so it needs
  // the event trace as much as --trace-out does.
  if (trace_.f || prof_.f) {
    level_ = ObsLevel::kFull;
  } else if (timeline_.f) {
    level_ = ObsLevel::kTimeline;
  } else if (args.has("json")) {
    level_ = ObsLevel::kSummary;
  }
  prof::init_clock();
  prof::set_level(prof_.f || metrics_.f ? prof::ProfLevel::kFull : prof::ProfLevel::kOff);
}

bool Outputs::write_or_complain(File& file, std::string_view content) {
  std::FILE* f = file.f.release();
  const bool wrote = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (std::fclose(f) == 0 && wrote) return true;
  std::perror(("writing " + file.path).c_str());
  return false;
}

bool Outputs::write_summary(std::string_view summary) {
  if (summary_stdout_)
    return std::fwrite(summary.data(), 1, summary.size(), stdout) == summary.size();
  return summary_.f == nullptr || write_or_complain(summary_, summary);
}

bool Outputs::write(const Observer* obs) {
  bool ok = true;
  // The policy trace is the merged writer's output with no phase spans.
  if (trace_.f) ok &= write_or_complain(trace_, prof::prof_trace_json({}, obs));
  if (timeline_.f) ok &= write_or_complain(timeline_, timeline_csv(*obs));
  if (prof_.f)
    ok &= write_or_complain(
        prof_, prof::prof_trace_json(prof::Profiler::instance().snapshot(), obs));
  if (metrics_.f)
    ok &= write_or_complain(metrics_,
                            prof::metrics_json(prof::Profiler::instance().snapshot()));
  return ok;
}

}  // namespace delta::obs
