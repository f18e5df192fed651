// Exporters for the self-profiling subsystem (formats documented in
// docs/observability.md):
//
//   prof_trace_json — Chrome trace-event JSON carrying the profiler's phase
//     spans as "X" duration events on per-thread tracks of a dedicated
//     "engine prof" process (wall-clock microseconds), merged with the
//     observer's policy events and counters when an Observer is supplied —
//     one flamegraph shows where epoch time went next to what the policy
//     did.
//   prometheus_text — Prometheus text exposition of a registry snapshot
//     (counters, gauges, histograms with cumulative le buckets).
//   metrics_json — JSON dump: every registry metric plus the snapshot's
//     per-phase wall totals and site aggregates.
//
// Like obs/export.hpp, exporters build strings; write_text_file() is the
// file sink.  start_from_flags / write_flag_outputs are the command-line
// front end shared by delta_sim and every bench harness.
#pragma once

#include <string>

#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"

namespace delta {
class ArgParser;
}  // namespace delta

namespace delta::obs {
class Observer;
}  // namespace delta::obs

namespace delta::obs::prof {

/// Trace process id for profiler tracks; run/scheme processes use their run
/// index (0..runs), so a high fixed pid keeps the two namespaces apart.
inline constexpr unsigned kProfTracePid = 1000;

std::string prof_trace_json(const ProfSnapshot& snap,
                            const Observer* obs = nullptr);

std::string prometheus_text(const RegistrySnapshot& reg);

std::string metrics_json(const RegistrySnapshot& reg, const ProfSnapshot& snap);

/// Pins the profiler's clock origin and arms its level from the flags
/// --prof-level off|phases|full, --prof-out FILE and --metrics-out FILE: an
/// explicit level wins, otherwise --prof-out implies full and --metrics-out
/// implies phases.  Call it before any worker thread exists.  Throws
/// std::invalid_argument on an unknown level or a missing file path.
void start_from_flags(const ArgParser& args);

/// Writes what those flags asked for: --prof-out as a Chrome trace (merged
/// with `obs`'s policy events when given), --metrics-out as Prometheus text
/// for a .prom/.txt path and JSON otherwise.  Each failed write is reported
/// with perror; returns false if any failed.
bool write_flag_outputs(const ArgParser& args, const Observer* obs = nullptr);

}  // namespace delta::obs::prof
