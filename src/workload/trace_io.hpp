// Trace file I/O: record a generator's block-address stream to disk and
// replay it later.
//
// The synthetic profiles substitute for SPEC pinballs (DESIGN.md §2); users
// who *do* have real post-L2 traces can feed them through TraceReader and
// run every experiment unmodified.  Format: a 16-byte header ("DLTTRACE",
// version, reserved) followed by raw little-endian uint64 block addresses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace delta::workload {

inline constexpr char kTraceMagic[8] = {'D', 'L', 'T', 'T', 'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;

class TraceWriter {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(BlockAddr block);
  std::uint64_t written() const { return count_; }
  /// Flushes and closes; further appends are invalid.  Throws
  /// std::runtime_error when the flush or the close fails (a full disk).
  /// The destructor closes without reporting.
  void close();

 private:
  std::FILE* f_ = nullptr;
  std::uint64_t count_ = 0;
};

/// Replays a recorded trace; wraps around at the end so the stream is
/// unbounded like the synthetic generators.
class TraceReader {
 public:
  /// Loads the whole trace into memory; throws std::runtime_error on
  /// missing/corrupt files, on an empty trace and on a payload that is not
  /// a whole number of 8-byte records ("truncated trace").
  explicit TraceReader(const std::string& path);

  BlockAddr next() {
    const BlockAddr b = blocks_[pos_];
    pos_ = (pos_ + 1) % blocks_.size();
    ++wraps_accum_;
    return b;
  }

  std::size_t size() const { return blocks_.size(); }
  std::uint64_t delivered() const { return wraps_accum_; }

 private:
  std::vector<BlockAddr> blocks_;
  std::size_t pos_ = 0;
  std::uint64_t wraps_accum_ = 0;
};

/// Convenience: record `n` accesses of any generator-like callable.
template <typename Gen>
void record_trace(const std::string& path, Gen&& gen, std::uint64_t n) {
  TraceWriter w(path);
  for (std::uint64_t i = 0; i < n; ++i) w.append(gen());
  w.close();
}

}  // namespace delta::workload
