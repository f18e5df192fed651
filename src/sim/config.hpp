// Machine configuration (paper Table II) for the 16- and 64-core tiled CMPs.
#pragma once

#include <string>

#include "common/types.hpp"
#include "core/params.hpp"
#include "noc/mcu.hpp"
#include "umon/umon.hpp"

namespace delta::sim {

struct MachineConfig {
  // Topology.
  int cores = 16;
  int mesh_width = 4;
  int mesh_height = 4;
  int num_mcus = 4;

  // LLC bank: 512 KB, 16-way, 64 B lines -> 512 sets (9 index bits).
  int ways_per_bank = 16;
  int sets_log2 = 9;
  Cycles llc_tag_latency = 2;
  Cycles llc_data_latency = 9;

  // Timing: 4 GHz core clock; one epoch = i_intra = 0.1 ms = 400 K cycles.
  Cycles epoch_cycles = 400'000;

  // Simulation length.
  int warmup_epochs = 60;
  int measure_epochs = 300;

  // Policy parameters.
  core::DeltaParams delta{};
  umon::UmonConfig umon{};
  noc::McuConfig mcu{};

  std::uint64_t seed = 0xDE17A;

  /// Worker threads of the access engine (sim/intra.hpp): 1 runs each
  /// epoch's stage/apply/reduce inline on the calling thread, N > 1 shards
  /// it over N threads, 0 means auto (hardware threads standalone; the
  /// leftover thread budget when nested under a sweep — see runner.hpp).  Results are
  /// byte-identical for every value; this knob trades wall-clock only and
  /// therefore never appears in reports or JSON output.
  int intra_jobs = 1;

  /// Pin each epoch's per-core access budget to the profile's nominal CPI
  /// instead of the measured cpi_est feedback loop.  This makes access
  /// streams byte-identical across schemes for the same config/mix/seed —
  /// required by the differential-scheme oracle (src/check/differential.hpp),
  /// which cross-checks totals between schemes.  Off for normal runs: the
  /// feedback loop is part of the timing model.
  bool lockstep_accesses = false;

  /// Throws std::invalid_argument naming the first field out of range:
  /// the tile count must be a power of two up to 128 and match the mesh
  /// (the plan's route bytes and the cache's owner byte hold a tile id),
  /// ways_per_bank in [1, 16] (the lanes of a cache set record), sets_log2
  /// in [1, 20], num_mcus in [1, cores], and `umon` must pass
  /// UmonConfig::validate().  Chip's constructor calls it, so no
  /// simulation runs on a config that fails.
  void validate() const;

  int sets_per_bank() const { return 1 << sets_log2; }

  friend bool operator==(const MachineConfig&, const MachineConfig&) = default;
};

/// 16-core preset: 4x4 mesh, 4 MCUs, allocations up to 6 MB (192 ways).
inline MachineConfig config16() {
  MachineConfig c;
  c.cores = 16;
  c.mesh_width = 4;
  c.mesh_height = 4;
  c.num_mcus = 4;
  c.delta.max_ways_per_app = 192;
  c.umon.max_ways = 192;
  return c;
}

/// 64-core preset: 8x8 mesh, 8 MCUs, allocations up to 24 MB (768 ways).
/// The paper simulates fewer instructions at 64 cores; we likewise default
/// to a shorter measured window.
inline MachineConfig config64() {
  MachineConfig c;
  c.cores = 64;
  c.mesh_width = 8;
  c.mesh_height = 8;
  c.num_mcus = 8;
  c.delta.max_ways_per_app = 768;
  c.umon.max_ways = 768;
  c.warmup_epochs = 60;
  c.measure_epochs = 200;
  return c;
}

}  // namespace delta::sim
