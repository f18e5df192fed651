// DeltaController: the distributed allocation policy of the paper, tying
// together the inter-bank challenge protocol (Alg. 1), the intra-bank
// reallocator (Alg. 2), the per-core Cache Bank Tables and the per-bank
// way-partitioning units.
//
// The controller is substrate-agnostic: the simulator feeds it per-core
// monitoring state (UMON + MLP) once per epoch (= i_intra = 0.1 ms) and
// applies the remap events it emits (chunk ranges whose previous bank
// placement must be bulk-invalidated).  Message exchange is modelled at
// interval granularity — NoC flight times (tens of cycles) are three orders
// of magnitude below the 1 ms challenge interval, so a challenge issued at
// the start of an interval completes within it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/cbt.hpp"
#include "core/params.hpp"
#include "core/pain_gain.hpp"
#include "core/way_partition.hpp"
#include "noc/mesh.hpp"
#include "noc/traffic.hpp"
#include "umon/umon.hpp"

namespace delta::obs {
class EventRecorder;
}

namespace delta::core {

/// Per-core monitoring snapshot handed to the controller each epoch.
struct TileInput {
  const umon::Umon* umon = nullptr;
  double mlp = 1.0;
  bool active = true;  ///< False == idle core (idle-bank fast path).
};

/// One chunk whose bank placement changed: the owning core's lines with
/// this chunk id must be invalidated in `old_bank`.
struct RemapChunk {
  CoreId core = kInvalidCore;
  int chunk = 0;
  BankId old_bank = kInvalidBank;
};

struct TickResult {
  std::vector<RemapChunk> remaps;
  int challenges_sent = 0;
  int challenges_won = 0;
  int intra_transfers = 0;
  int retreats = 0;
};

struct DeltaStats {
  std::uint64_t challenges_sent = 0;
  std::uint64_t challenges_won = 0;
  std::uint64_t intra_transfers = 0;
  std::uint64_t retreats = 0;
  std::uint64_t idle_grabs = 0;
  std::uint64_t cbt_rebuilds = 0;
  std::uint64_t chunks_remapped = 0;
  std::uint64_t alu_ops = 0;  ///< Pain/gain computations + comparisons.
};

class DeltaController {
 public:
  DeltaController(const noc::Mesh& mesh, DeltaParams params, int ways_per_bank = 16,
                  int sets_log2 = 9);

  /// Equal-partition initial state: every core owns its whole home bank.
  void reset();

  /// Advances one epoch.  Runs the intra-bank algorithm every
  /// `intra_interval_epochs` and the inter-bank algorithm every
  /// `inter_interval_epochs`.  `inputs` has one entry per tile.
  TickResult tick(std::uint64_t epoch, std::span<const TileInput> inputs,
                  noc::TrafficStats* traffic = nullptr);

  /// Attaches a policy-event trace sink (null or disabled == no tracing).
  /// Events are emitted at the decision sites: challenges with the compared
  /// gain/pain values, way transfers, retreats, CBT rebuilds and remaps.
  void set_recorder(obs::EventRecorder* rec) { rec_ = rec; }

  // ---- Introspection. ----
  const Cbt& cbt(CoreId core) const { return cbts_[static_cast<std::size_t>(core)]; }
  const WpUnit& wp(BankId bank) const { return wp_[static_cast<std::size_t>(bank)]; }
  int total_ways(CoreId core) const;
  int ways_outside_home(CoreId core) const;
  /// Banks the core holds capacity in, acquisition order (home first).
  const std::vector<BankId>& banks_of(CoreId core) const {
    return acq_order_[static_cast<std::size_t>(core)];
  }
  const DeltaStats& stats() const { return stats_; }
  const DeltaParams& params() const { return params_; }
  int num_tiles() const { return mesh_.tiles(); }
  int ways_per_bank() const { return ways_per_bank_; }

  /// Test-only fault injection (invariant-checker tests): forces the owner
  /// of one way, bypassing every conservation rule the policy maintains.
  void debug_set_way_owner(BankId bank, int way, CoreId owner) {
    wp_[static_cast<std::size_t>(bank)].set_owner(way, owner);
  }

  /// Hardware state per tile for the distributed implementation
  /// (Sec. II-B4 + II-C): an (N+2)-entry pain register array and an
  /// (N+1)-entry distance-ordered tile-id array of log2(N) bits each, the
  /// CBT (log2(N) x N bits) and the WP bitmask (N x W bits).
  static std::uint64_t storage_bits_per_tile(int num_tiles, int ways_per_bank);

 private:
  struct Snapshot {
    PainGain pg;
    bool active = false;
    double mlp = 1.0;
  };

  void snapshot_pain_gain(std::span<const TileInput> inputs);
  void inter_bank(std::span<const TileInput> inputs, TickResult& result,
                  noc::TrafficStats* traffic);
  void intra_bank(std::span<const TileInput> inputs, TickResult& result,
                  noc::TrafficStats* traffic);

  /// Rebuilds `core`'s CBT from its current acquisition list and way
  /// counts, appending the resulting chunk moves to `result`.
  void rebuild_cbt(CoreId core, TickResult& result, noc::TrafficStats* traffic);

  /// Removes `bank` from `core`'s holdings (retreat) and rebuilds its CBT.
  void retreat(CoreId core, BankId bank, TickResult& result, noc::TrafficStats* traffic);

  double gain_for_bank(CoreId core, BankId bank) const;
  void count_msg(noc::TrafficStats* traffic, noc::MsgType type, std::uint64_t n = 1);

  const noc::Mesh& mesh_;
  DeltaParams params_;
  int ways_per_bank_;
  int sets_log2_;

  std::vector<WpUnit> wp_;                    ///< One per bank.
  std::vector<Cbt> cbts_;                     ///< One per core.
  std::vector<std::vector<BankId>> acq_order_;
  std::vector<std::vector<int>> cand_order_;  ///< Challenge candidates by distance.
  std::vector<std::size_t> cand_cursor_;
  std::vector<Snapshot> snap_;
  DeltaStats stats_;
  obs::EventRecorder* rec_ = nullptr;  ///< Optional event trace sink.
  std::uint64_t obs_epoch_ = 0;        ///< Epoch stamped onto emitted events.
};

}  // namespace delta::core
