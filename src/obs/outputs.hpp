// The observability front end of every command line: delta_sim, delta_fuzz
// and the bench harnesses (bench::Cli).  The output flags alone decide what
// is collected (docs/observability.md):
//
//   --json [FILE]        end-of-run summary; bare --json means stdout
//                        (observer at summary)
//   --timeline-csv FILE  per-epoch time series (observer at timeline)
//   --trace-out FILE     policy-event Chrome trace (observer at full)
//   --prof-out FILE      engine flamegraph merged with the policy events
//                        (observer at full, profiler on)
//   --metrics-out FILE   JSON metrics dump (profiler on)
//
// Every file is opened when the front end is built, before any simulation
// runs, so a bad path fails at once instead of after the whole report.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/observer.hpp"

namespace delta {
class ArgParser;
}  // namespace delta

namespace delta::obs {

class Outputs {
 public:
  /// Rejects an empty path on any file flag, opens (truncates) every
  /// requested file, pins the profiler's clock origin and switches the
  /// profiler on for --prof-out / --metrics-out (off otherwise).  Throws
  /// std::invalid_argument naming the flag.  Build it once the rest of the
  /// command line is validated and before any worker thread exists.
  explicit Outputs(const ArgParser& args);

  /// Level the run's observer must collect at; nullopt when no requested
  /// output reads an observer.
  std::optional<ObsLevel> observer_level() const { return level_; }

  /// True for a bare --json: the summary owns stdout.
  bool summary_on_stdout() const { return summary_stdout_; }

  /// Writes `summary` where --json points; does nothing without --json.
  /// Returns false if the write failed: after perror for a file; on stdout
  /// the caller's end-of-run stdout check names the error.
  bool write_summary(std::string_view summary);

  /// Writes the requested timeline, trace, profiler trace and metrics.
  /// `obs` is the run's observer; it may be null only when neither
  /// --trace-out nor --timeline-csv was given (--prof-out then holds the
  /// profiler's spans alone).  Each failed write is reported with perror;
  /// returns false if any failed.
  bool write(const Observer* obs);

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  struct File {
    std::string path;
    std::unique_ptr<std::FILE, Closer> f;  ///< Null when not requested.
  };

  static File open(const ArgParser& args, const char* flag);
  static bool write_or_complain(File& file, std::string_view content);

  File summary_, timeline_, trace_, prof_, metrics_;
  bool summary_stdout_ = false;
  std::optional<ObsLevel> level_;
};

}  // namespace delta::obs
