// Exporters for the self-profiling subsystem (formats documented in
// docs/observability.md):
//
//   prof_trace_json — the one Chrome trace-event JSON writer (open in
//     Perfetto or chrome://tracing).  It carries the profiler's phase
//     spans as "X" duration events on per-thread tracks of a dedicated
//     "engine prof" process (wall-clock microseconds), merged with the
//     observer's policy events when an Observer is supplied: instant
//     events on per-tile tracks, one process per run/scheme, plus
//     per-core way/IPC and per-MCU queue counters from the timeline.  One
//     flamegraph shows where epoch time went next to what the policy did;
//     with an empty snapshot (--trace-out) it is the policy trace alone.
//   metrics_json — JSON dump: every registry metric plus the snapshot's
//     per-phase wall totals and site aggregates.
//
// Like obs/export.hpp, exporters build strings; obs/outputs.hpp writes them
// to the files the command line names.
#pragma once

#include <string>

#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"

namespace delta::obs {
class Observer;
}  // namespace delta::obs

namespace delta::obs::prof {

/// Trace process id for profiler tracks; run/scheme processes use their run
/// index (0..runs), so a high fixed pid keeps the two namespaces apart.
inline constexpr unsigned kProfTracePid = 1000;

std::string prof_trace_json(const ProfSnapshot& snap,
                            const Observer* obs = nullptr);

std::string metrics_json(const RegistrySnapshot& reg, const ProfSnapshot& snap);

}  // namespace delta::obs::prof
