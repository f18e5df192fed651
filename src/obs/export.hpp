// Machine-readable exporters for the observability layer
// (docs/observability.md documents the formats):
//
//   timeline_csv — long-format epoch time series with an `entity` column
//     (core / mcu / chip) so one file carries all three row types.
//
// The Chrome trace of the policy events has one writer,
// prof::prof_trace_json (obs/prof/export.hpp), which merges them with the
// profiler's phase spans when there are any.
//
// Exporters build strings so tests can validate output without touching
// the filesystem; write_text_file() is the thin file sink used by tools.
#pragma once

#include <string>
#include <string_view>

#include "obs/observer.hpp"

namespace delta::obs {

/// JSON string escaping (control characters, quotes, backslash).
std::string json_escape(std::string_view s);

/// Finite-checked JSON number formatting (%.6g; NaN/Inf become 0).
std::string json_num(double x);

/// Header row of timeline_csv(), without the trailing newline.
std::string timeline_csv_header();

std::string timeline_csv(const Observer& obs);

/// Writes `content` to `path`; returns false (and leaves errno set) on
/// failure.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace delta::obs
