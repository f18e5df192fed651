// Cache Bank Table (CBT): per-core range table mapping address chunks to
// LLC banks (Sec. II-C1).
//
// The hardware structure is a small fully-associative range table with at
// most N entries (N = number of banks); ranges partition the 256 values of
// the bit-reversed bank-selection byte, with each bank's range sized
// proportionally to the core's allocation in that bank.  This model keeps
// both the range list (for storage accounting and range-count invariants)
// and a flat 256-entry map for O(1) lookup in the simulator.  The map is
// indexed by the *raw* bank-selection byte: rebuild() applies reverse8
// once per entry, so the per-access lookup() is one shift, one mask and
// one load, and only the cold bank_for_chunk() maps a chunk id through
// reverse8.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/address.hpp"

namespace delta::obs {
class EventRecorder;
}

namespace delta::core {

struct CbtRange {
  int first_chunk = 0;  ///< Inclusive.
  int last_chunk = 0;   ///< Inclusive.
  BankId bank = kInvalidBank;
};

class Cbt {
 public:
  /// Starts with every chunk mapped to `home_bank` (equal-partition init).
  /// `reverse_bits` selects the paper's bit-reversed chunk indexing.
  explicit Cbt(BankId home_bank, bool reverse_bits = true);

  /// Rebuilds ranges from (bank, ways) pairs in *stable acquisition order*
  /// (home bank first).  Range lengths are proportional to way counts; the
  /// rounding remainder goes to the largest allocation.  Total ways must
  /// be > 0.  When `rec` is non-null a kCbtRebuild event is appended with
  /// `owner`/`epoch` context and the resulting range count.
  void rebuild(const std::vector<std::pair<BankId, int>>& bank_ways,
               obs::EventRecorder* rec = nullptr, std::uint64_t epoch = 0,
               CoreId owner = kInvalidCore);

  BankId bank_for_chunk(int chunk) const {
    return select_map_[select_of(chunk)];
  }

  /// Full lookup: block address -> owning bank (bit-reversed chunk index).
  BankId lookup(BlockAddr block, int sets_log2) const {
    return select_map_[mem::bank_select_byte(block, sets_log2)];
  }

  /// Bank per raw bank-selection byte: the table lookup() indexes.
  const std::array<BankId, mem::kNumChunks>& select_map() const { return select_map_; }

  bool reverse_bits() const { return reverse_bits_; }

  const std::vector<CbtRange>& ranges() const { return ranges_; }
  int range_count() const { return static_cast<int>(ranges_.size()); }

  /// The (bank, ways) pairs of the last rebuild — the allocation the range
  /// sizes are proportional to.  Way counts may drift afterwards (intra-bank
  /// transfers do not remap addresses), so invariant checks compare range
  /// sizes against this record, not against live WP state.
  const std::vector<std::pair<BankId, int>>& last_alloc() const { return last_alloc_; }

  /// Chunks whose bank assignment differs from `prev` — the set that must
  /// be invalidated at their previous location after a reconfiguration.
  std::vector<int> changed_chunks(const Cbt& prev) const;

  /// Storage cost in bits: log2(N) x N as per Sec. II-C1.
  static std::uint64_t storage_bits(int num_banks);

 private:
  std::vector<CbtRange> ranges_;
  std::vector<std::pair<BankId, int>> last_alloc_;
  /// The bank-selection byte that addresses `chunk` (reverse8 is its own
  /// inverse).
  std::size_t select_of(int chunk) const {
    const auto c = static_cast<std::uint8_t>(chunk);
    return reverse_bits_ ? mem::reverse8(c) : c;
  }

  /// Bank per raw bank-selection byte.
  std::array<BankId, mem::kNumChunks> select_map_{};
  bool reverse_bits_ = true;
};

}  // namespace delta::core
