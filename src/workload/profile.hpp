// Synthetic application profiles.
//
// The paper drives its evaluation with SPEC CPU2006 whole-program pinballs.
// Those traces are proprietary, so each benchmark is replaced by a
// *working-set mixture* model that reproduces the statistics the allocation
// policies actually observe: the LLC-access (private-L2 miss) rate, the miss
// curve shape vs. allocated capacity, and the memory-level parallelism.
//
// A profile is a sequence of phases; each phase mixes "rings":
//   * kUniform — uniformly random lines inside a region; in an LRU cache of
//     capacity C this converges to a hit ratio of ~min(1, C/size): a smooth,
//     concave miss curve (typical cache-friendly data).
//   * kLoop    — cyclic sequential sweep over a region; under LRU this hits
//     *nothing* until the whole region fits, then everything: a cliff in the
//     miss curve.  This models the xalancbmk/soplex behaviour the paper
//     highlights (Fig. 7): a *farsighted* allocator sees the cliff, DELTA's
//     windowed gain does not.
//   * kStream  — ever-advancing stream, no reuse at cacheable distances
//     (thrashing applications: bwaves, libquantum, milc).
//
// The irregular-access family (workload/irregular.hpp) adds three kinds
// whose reuse distances sit near the region size — within any allocatable
// capacity their miss curves are *flat* (no cliff, no slope for an
// allocator to climb):
//   * kGather   — gather/scatter: even steps sweep a compact index array
//     sequentially, odd steps touch hash-scattered lines of the data
//     region (sparse matrix / column-gather kernels).
//   * kHashJoin — hashed one-pass sweeps over a table region; each wrap
//     re-salts the hash, so build and successive probe passes visit the
//     buckets in fresh pseudo-random orders.
//   * kWalk     — graph traversal: a full-period affine walk over node
//     ids, each id scattered through a hash into the region (pointer
//     chasing with no spatial locality).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace delta::workload {

enum class RingKind : std::uint8_t {
  kUniform,
  kLoop,
  kStream,
  kGather,
  kHashJoin,
  kWalk,
};

/// Table III sensitivity classes.
enum class AppClass : std::uint8_t {
  kInsensitive,         // I
  kThrashing,           // T
  kSensitiveLow,        // L   (gains 128 KB -> 512 KB)
  kSensitiveLowMedium,  // LM  (gains also 512 KB -> 8 MB)
};

std::string to_string(AppClass c);

struct Ring {
  std::uint64_t bytes = 0;  ///< Region size.
  double weight = 0.0;      ///< Fraction of accesses hitting this ring.
  RingKind kind = RingKind::kUniform;
};

struct Phase {
  std::vector<Ring> rings;
  double mlp = 1.0;        ///< Average outstanding LLC misses (Eq. 1/2's m).
  double cpi_base = 0.5;   ///< CPI excluding LLC-access stalls.
  double apki = 10.0;      ///< LLC accesses (L2 misses) per kilo-instruction.
};

struct AppProfile {
  std::string name;        ///< Full SPEC name, e.g. "xalancbmk".
  std::string short_name;  ///< Table III/IV code, e.g. "xa".
  AppClass cls = AppClass::kInsensitive;
  std::vector<Phase> phases;
  /// Phase length in 0.1 ms epochs; 0 disables phase switching.
  std::uint32_t phase_len_epochs = 0;

  /// Total bytes touched by the largest phase (diagnostics only).
  std::uint64_t footprint_bytes() const {
    std::uint64_t best = 0;
    for (const auto& p : phases) {
      std::uint64_t f = 0;
      for (const auto& r : p.rings) f += r.bytes;
      best = best > f ? best : f;
    }
    return best;
  }
};

}  // namespace delta::workload
