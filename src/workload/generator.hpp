// Trace generator: turns an AppProfile into a deterministic stream of
// LLC-bound block addresses.
//
// A draw runs once per simulated LLC access, so its per-access work is
// table-driven: the ring is chosen by comparing the raw 53-bit draw
// against integer thresholds precomputed from the phase's cumulative
// weights (ring_thresholds), and each ring's state record carries its
// kind, its power-of-two mask and, for the salted kinds (gather, hash
// join), the current pass's affine map, recomputed only when the salt
// changes.  The access engines draw whole batches with fill(), which keeps
// the RNG state and the phase tables in locals across the batch; next()
// runs the same draw for one access.
//
// A generator attached to a SharedStream (workload/shared_stream.hpp)
// copies the blocks that stream's own generator drew instead of drawing
// them; the sequence is the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/profile.hpp"

namespace delta::workload {

/// Ring-choice thresholds for one phase, from its cumulative ring weights
/// `cum` (non-decreasing, last > 0).  The historical choice drew
/// u = k * 2^-53 from a 53-bit draw k, scaled r = u * cum.back(), and took
/// the first ring i with r < cum[i] (the last ring otherwise).  T_j is the
/// smallest k with (k * 2^-53) * cum.back() >= cum[j] under that same
/// floating-point expression, or 2^53 when no draw reaches it; the result
/// holds T_j for j < cum.size() - 1.  Rounding is monotone in k, so
/// choose_ring(T, k) equals the historical scan for every draw.
std::vector<std::uint64_t> ring_thresholds(const std::vector<double>& cum);

/// The ring a 53-bit draw `k` selects: the number of thresholds <= k.
inline std::size_t choose_ring(const std::uint64_t* thresholds, std::size_t n,
                               std::uint64_t k) {
  std::size_t i = 0;
  for (std::size_t j = 0; j < n; ++j) i += thresholds[j] <= k ? 1 : 0;
  return i;
}

/// True when the profile's stream does not depend on epoch boundaries
/// (one phase, or phase switching disabled): set_epoch() never changes
/// its phase, so jobs may share the stream (workload/shared_stream.hpp).
bool epoch_invariant(const AppProfile& profile);

class SharedStream;
struct StreamChunk;

/// A generator's place in the SharedStream it is attached to.
struct StreamCursor {
  SharedStream* stream = nullptr;
  StreamChunk* chunk = nullptr;  ///< Null before the first read.
  std::size_t next = 0;          ///< Next block of `chunk`.
  unsigned sharer = 0;
};

class TraceGen {
 public:
  /// `base_addr` keeps distinct program instances in disjoint address
  /// ranges (multi-programmed workloads share nothing).  `seed` controls
  /// every random choice; equal seeds give equal streams.
  TraceGen(const AppProfile& profile, Addr base_addr, std::uint64_t seed);
  ~TraceGen();
  TraceGen(const TraceGen&) = delete;
  TraceGen& operator=(const TraceGen&) = delete;

  /// Replays `stream` from its start instead of drawing: `stream` must be
  /// the stream this generator would draw (same profile, base and seed),
  /// and the profile epoch-invariant.  Call before the first draw; the
  /// generator finishes its share when destroyed.
  void attach(SharedStream& stream);

  /// Next block address of the post-L2 access stream.
  BlockAddr next();

  /// Writes the next `n` block addresses to out[0, n): the values n calls
  /// of next() would return, in order.  The phase stays fixed across the
  /// batch, as it does between set_epoch() calls.
  void fill(BlockAddr* out, std::size_t n);

  /// Selects the active phase for a global epoch counter (phase offsets are
  /// derived from the seed so replicated instances de-synchronise).
  void set_epoch(std::uint64_t epoch);

  const Phase& phase() const { return *phase_; }
  const AppProfile& profile() const { return profile_; }
  Addr base_addr() const { return base_; }

 private:
  /// One ring's generator state.  `mul`/`add` are the affine map of the
  /// current pass of a salted ring (kGather, kHashJoin), kept in step with
  /// `salt` by reseed().
  struct RingState {
    RingKind kind = RingKind::kUniform;
    BlockAddr base_block = 0;
    std::uint64_t lines = 0;
    std::uint64_t mask = 0;       ///< bit_floor(lines) - 1.
    std::uint64_t idx_lines = 0;  ///< kGather: lines of the index array.
    std::uint64_t pos = 0;        ///< Loop/stream/walk cursor.
    std::uint64_t salt = 0;       ///< Hash salt; bumped per pass.
    std::uint64_t mul = 0;        ///< mix64(salt ^ C1) | 1.
    std::uint64_t add = 0;        ///< mix64(salt + C2).
    void reseed();
  };
  struct PhaseState {
    std::vector<RingState> rings;
    std::vector<std::uint64_t> thresholds;  ///< ring_thresholds(cum weights).
  };

  /// One access of the stream: the ring choice and the chosen ring's step.
  /// The only copy of the ring logic; next() and fill() both inline it.
  /// Uniform and loop/stream rings step inline, the others in cold_step().
  static BlockAddr draw(Rng& rng, const std::uint64_t* thresholds,
                        std::size_t n_thresholds, RingState* rings);
  /// The step of a ring that draws no random number beyond the ring
  /// choice: gather, hash join and walk.  Out of line so the inlined
  /// draw loop stays small for the SPEC profiles, which use none of them.
  [[gnu::noinline]] static BlockAddr cold_step(RingState& rs);

  const AppProfile& profile_;
  Addr base_;
  Rng rng_;
  std::uint32_t phase_offset_ = 0;
  std::size_t phase_idx_ = 0;
  const Phase* phase_ = nullptr;
  std::vector<PhaseState> states_;
  StreamCursor cursor_;

  /// Streams wrap at this many lines so footprints stay bounded while reuse
  /// distance remains far beyond any allocatable capacity.
  static constexpr std::uint64_t kStreamWrapLines = lines_in(256 * kMiB);
};

}  // namespace delta::workload
