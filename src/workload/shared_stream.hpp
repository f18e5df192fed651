// Shared access streams: the jobs of one experiment sweep that replay the
// same application on the same core with the same seed draw identical
// block streams, whatever scheme or knob they run under.  A SharedStream
// draws such a stream once, in fixed-size chunks, and every sharer's
// TraceGen copies its blocks from it (TraceGen::attach); TraceGen::fill
// stays the one entry point the access engines call.
//
// What may be shared.  A stream is a function of its profile, its address
// window and its seed only when the profile has a single phase (or never
// switches phase): then TraceGen::set_epoch is a no-op and the sequence
// does not depend on how accesses split across epochs, which differs
// between schemes.  A chip's core c replaying app A under MachineConfig
// seed S builds its generator from spec_profile(A), core_window_base(c) and
// core_seed(S, c), so StreamKey (A's short name, c, S) names the stream by
// value, and a 16-tile and a 64-tile job share their common cores' streams.
// Phased profiles are never shared.
//
// Concurrency.  A missing chunk is drawn by the first sharer that needs
// it, under the stream's mutex, and published by a release store of the
// link to it (head_ for the first chunk, the previous chunk's `next` for
// the rest); readers acquire-load the link and then read the published
// chunk without a lock.  Each sharer publishes its place as the index of
// the chunk it is reading (release); a chunk is freed, under the mutex,
// once every expected sharer's place is past it or the sharer has
// finished.  A sharer that has not yet attached holds place 0.
//
// Memory.  A chunk holds StreamChunk::kBlocks 32-bit offsets from the window's
// first block (16 KB, 4 bytes per access): each program instance owns a
// 16 GB window, so an offset is below 2^28, checked on every chunk drawn.
// A stream keeps the chunks from the one its slowest unfinished sharer
// reads up to the newest; a counted sharer that has not started reads
// chunk 0, so until its last sharer starts a stream keeps all it has
// drawn.  sim::run_sweep gives each claim group its own StreamSet and
// claims a group's jobs together, so with T sweep threads at most T + 1
// groups have live chunks (those running a job, and the one being
// claimed), and a sweep's peak is at most (T + 1) x 4 bytes x the
// largest group's shared accesses, counting each shared stream at the
// length its longest sharer reads.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace delta::workload {

/// First byte address of core `core`'s window: program instances live in
/// disjoint 16 GB windows, one per core.
constexpr Addr core_window_base(int core) { return (static_cast<Addr>(core) + 1) << 34; }

/// Blocks in one core window (16 GB of 64 B lines): every block a core's
/// generator draws lies in [block_of(core_window_base(c)), + kWindowBlocks).
inline constexpr std::uint64_t kWindowBlocks = std::uint64_t{1} << 28;

/// Core `core`'s generator seed under chip seed `seed`: the (core + 1)-th
/// splitmix64 draw from it.
std::uint64_t core_seed(std::uint64_t seed, int core);

/// A generator by value: (profile short name, core index, chip seed).
struct StreamKey {
  std::string app;
  int core = 0;
  std::uint64_t seed = 0;
  friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
};

struct StreamChunk {
  static constexpr std::size_t kBlocks = 4096;
  std::array<std::uint32_t, kBlocks> offsets;  ///< Blocks minus the window base.
  std::uint64_t index = 0;                  ///< Position in the stream.
  std::atomic<StreamChunk*> next{nullptr};  ///< Published under the mutex.
};

class SharedStream {
 public:
  /// The stream TraceGen(profile, base, seed) draws, read by exactly
  /// `sharers` generators.
  SharedStream(const AppProfile& profile, Addr base, std::uint64_t seed, unsigned sharers);
  ~SharedStream();
  SharedStream(const SharedStream&) = delete;
  SharedStream& operator=(const SharedStream&) = delete;

  /// Registers one more sharer and returns its id; throws std::logic_error
  /// past the count given at construction.
  unsigned attach() EXCLUDES(mu_);
  /// Writes the cursor's next `n` blocks to out[0, n) and advances it.
  void read(StreamCursor& cur, BlockAddr* out, std::size_t n);
  /// The sharer reads no more: frees whatever every sharer has passed.
  void finish(const StreamCursor& cur) EXCLUDES(mu_);

  /// Chunks and streams alive in the process (tests check that a sweep
  /// frees everything it built).
  static std::size_t live_chunks();
  static std::size_t live_streams();

 private:
  /// The chunk after `prev` (the first chunk when null), drawing it if no
  /// sharer has yet; publishes the sharer's new place and frees passed
  /// chunks.
  StreamChunk* advance(StreamCursor& cur);
  StreamChunk* draw_after(StreamChunk* prev) EXCLUDES(mu_);
  /// Lowest place over all sharers (acquire loads).
  std::uint64_t min_place() const;
  /// Frees the chunks every sharer has passed.
  void free_passed() EXCLUDES(mu_);

  const BlockAddr base_block_;
  const unsigned sharers_;
  /// Per sharer: index of the chunk it reads, UINT64_MAX once finished.
  const std::unique_ptr<std::atomic<std::uint64_t>[]> places_;
  std::atomic<StreamChunk*> head_{nullptr};
  /// Index of the oldest live chunk (chunks drawn so far when none is
  /// live); written under mu_, read without it as a hint.
  std::atomic<std::uint64_t> oldest_{0};

  common::Mutex mu_;
  TraceGen source_ GUARDED_BY(mu_);
  std::deque<std::unique_ptr<StreamChunk>> live_ GUARDED_BY(mu_);  ///< Oldest first.
  std::uint64_t drawn_ GUARDED_BY(mu_) = 0;
  unsigned attached_ GUARDED_BY(mu_) = 0;
  std::vector<BlockAddr> scratch_ GUARDED_BY(mu_);
};

/// The shared streams of one claim group of a sweep (sim::run_sweep).
/// Built once, before any job starts, from the stream key of every active
/// core of the group's jobs; a key becomes a stream when two or more uses
/// name it and its profile is epoch-invariant.  Immutable afterwards, so
/// lookups take no lock.
class StreamSet {
 public:
  explicit StreamSet(const std::vector<StreamKey>& uses);

  /// The key's stream, or null when the key is not shared.
  SharedStream* find(const StreamKey& key) const;

 private:
  std::map<StreamKey, std::unique_ptr<SharedStream>> streams_;
};

}  // namespace delta::workload
