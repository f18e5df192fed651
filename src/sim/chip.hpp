// Tiled-CMP simulator: epoch-driven multi-program execution over real LLC
// bank contents, a mesh NoC latency model and queued memory controllers.
//
// Timing model (see DESIGN.md "Simulator design notes"): the chip advances
// in 0.1 ms epochs.  Each core issues its post-L2 access stream for the
// epoch (target count derived from its current CPI estimate and the
// profile's accesses-per-kilo-instruction); streams of different cores are
// interleaved in small batches so set-level interference in shared
// configurations is modelled.  Per-access latency = NoC round trip to the
// bank + tag/data latency, plus MCU round trip + DRAM + queueing on a miss;
// each access contributes latency/MLP stall cycles (interval model).
//
// The chip runs the policy step of each epoch itself and hands the access
// step, in one call, to its AccessEngine: the staged bank-by-bank pipeline
// of sim/intra.hpp at every intra_jobs.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "noc/mcu.hpp"
#include "noc/mesh.hpp"
#include "noc/traffic.hpp"
#include "obs/observer.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"
#include "umon/umon.hpp"
#include "workload/generator.hpp"
#include "workload/shared_stream.hpp"
#include "workload/spec.hpp"

namespace delta::sim {

/// Per-core program state.  App name "idle" (or "") leaves the core idle.
struct AppSlot {
  std::string app_name;
  const workload::AppProfile* profile = nullptr;
  std::unique_ptr<workload::TraceGen> gen;
  std::unique_ptr<umon::Umon> umon;  ///< Null unless the plan asks for monitors.
  bool active = false;

  // Cycle accounting.
  double cpi_est = 1.0;
  double instructions = 0.0;   ///< Measured window.
  Cycles cycles = 0;           ///< Measured window.

  // Measured-window stats.
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  double lat_sum = 0.0;
  double hop_sum = 0.0;
  double ways_sum = 0.0;       ///< Epoch-sampled allocation.
  std::uint64_t ways_samples = 0;

  // Per-epoch scratch.
  std::uint64_t epoch_accesses = 0;
  double epoch_lat_sum = 0.0;
};

class Chip;

/// Everything one epoch's accesses read and write.  Chip::run_one_epoch
/// hands it to the access engine once per epoch, after the policy step;
/// the plan, the mesh and the MCUs' request latencies stay constant until
/// the call returns.
struct EpochAccess {
  const EpochPlan& plan;
  std::span<mem::SetAssocCache> banks;
  /// Per core: the generator and monitor its stream comes from, and the
  /// statistics the epoch adds to.  Idle cores issue nothing.
  std::span<AppSlot> slots;
  std::span<const std::uint64_t> targets;  ///< Per core: this epoch's accesses.
  const noc::Mesh& mesh;
  noc::MemorySystem& memsys;
  noc::TrafficStats& traffic;
  Cycles llc_latency;   ///< Tag + data latency of one bank access.
  std::uint64_t batch;  ///< Chip::interleave_batch().
  std::uint64_t epoch;
  bool measuring;       ///< Add to the measured-window statistics too.
};

/// The access step of an epoch behind one call.  Its contract is the
/// canonical interleaving: every core issues its target in round-robin
/// batches of `batch` accesses (core 0's first batch, core 1's, ..., then
/// every core's second batch), and the banks, monitors, MCUs, traffic and
/// slot statistics end up as that sequence of single accesses leaves them.
class AccessEngine {
 public:
  virtual ~AccessEngine() = default;
  virtual void run_epoch(const EpochAccess& io) = 0;
  /// Host threads run_epoch runs on (1 == inline on the caller).
  virtual unsigned threads() const = 0;
};

using AccessEngineFactory = std::unique_ptr<AccessEngine> (*)(const MachineConfig&);

/// Test seam: while `f` is set, every Chip constructed takes its access
/// engine from `f` (tests install a reference implementation this way);
/// null, the default, gives the staged engine of sim/intra.hpp.
void set_access_engine_factory(AccessEngineFactory f);

/// Epoch-boundary hook for chip-wide validation (src/check's
/// InvariantChecker implements it).  Defined here rather than in the check
/// library so Chip can invoke it without a dependency cycle.  `on_epoch`
/// runs right after the scheme's begin_epoch(), i.e. against the
/// post-reconfiguration state the epoch's accesses will see.
class EpochChecker {
 public:
  virtual ~EpochChecker() = default;
  virtual void on_epoch(Chip& chip, std::uint64_t epoch) = 0;
};

class Chip {
 public:
  /// Batch size for interleaving per-core access streams within an epoch:
  /// small enough that contending cores interact at fine grain.  The
  /// access engine reproduces this exact interleaving, so the value is
  /// part of the determinism contract — changing it changes results.  This
  /// constant is the default; MachineConfig::interleave_batch != 0
  /// overrides it per chip (see interleave_batch()).
  static constexpr std::uint64_t kInterleaveBatch = 16;

  /// The batch size this chip actually runs with — kInterleaveBatch unless
  /// the config overrode it.
  std::uint64_t interleave_batch() const { return interleave_batch_; }

  /// `apps` holds one profile short-name per core ("idle" => idle core).
  /// Throws std::invalid_argument for a config MachineConfig::validate()
  /// rejects or an `apps` list whose length is not cfg.cores.  The access
  /// engine runs on intra_threads() workers (cfg.intra_jobs, 0 = hardware
  /// threads); results are byte-identical at every count.  A core whose
  /// stream_keys() entry names a stream of `streams` (non-null inside
  /// run_sweep only) reads its blocks from that stream instead of drawing
  /// them; results are the same.
  Chip(const MachineConfig& cfg, const std::vector<std::string>& apps,
       std::unique_ptr<Scheme> scheme, workload::StreamSet* streams = nullptr);
  ~Chip();

  /// The stream key of every active core a Chip(cfg, apps, ...) would
  /// build, in core order; empty for an `apps` list that does not fit cfg
  /// or names an unknown profile (such a chip throws instead).
  static std::vector<workload::StreamKey> stream_keys(const MachineConfig& cfg,
                                                      const std::vector<std::string>& apps);

  /// Runs warmup + measured epochs and returns per-app results.
  MixResult run(const std::string& mix_name = "custom");

  /// Runs `n` epochs starting from the current state (building block for
  /// run(); exposed for fine-grained tests/examples).
  void run_epochs(int n, bool measuring);

  // ---- Accessors used by schemes and instrumentation. ----
  const MachineConfig& config() const { return cfg_; }
  const noc::Mesh& mesh() const { return mesh_; }
  noc::MemorySystem& memsys() { return memsys_; }
  mem::SetAssocCache& bank(BankId b) { return banks_[static_cast<std::size_t>(b)]; }
  const mem::SetAssocCache& bank(BankId b) const {
    return banks_[static_cast<std::size_t>(b)];
  }
  AppSlot& slot(CoreId c) { return slots_[static_cast<std::size_t>(c)]; }
  const AppSlot& slot(CoreId c) const { return slots_[static_cast<std::size_t>(c)]; }
  int cores() const { return cfg_.cores; }
  noc::TrafficStats& traffic() { return traffic_; }
  Scheme& scheme() { return *scheme_; }
  /// The routing/mask tables the access engine reads (scheme.hpp).  The
  /// scheme writes it on the epoch barrier only.
  EpochPlan& plan() { return plan_; }
  const EpochPlan& plan() const { return plan_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t invalidated_lines() const { return invalidated_lines_; }

  /// Attaches an observability context (may be null; the chip does not own
  /// it).  Costs nothing on the access path: all hooks sit on epoch
  /// boundaries and reconfiguration events, and schemes re-wire their event
  /// sinks from here in begin_epoch().
  void set_observer(obs::Observer* o) { obs_ = o; }
  obs::Observer* observer() { return obs_; }
  /// Event sink for emission sites: null when tracing is off.
  obs::EventRecorder* event_sink() {
    return obs_ != nullptr ? obs_->event_sink() : nullptr;
  }

  /// Attaches an epoch-boundary checker (may be null; not owned).  Invoked
  /// every epoch after the scheme's reconfiguration hook.
  void set_checker(EpochChecker* c) { checker_ = c; }
  EpochChecker* checker() { return checker_; }

  /// Bulk-invalidation unit (Sec. II-C3): sweeps `old_bank` and drops
  /// `core`-owned lines whose CBT chunk is in `chunks`.  Returns the number
  /// of lines invalidated and counts one kInvalidation command message.
  std::uint64_t invalidate_core_chunks(CoreId core, BankId old_bank,
                                       const std::vector<int>& chunks);

  /// The chunk set `chunks` as a table over the raw bank-select byte
  /// (mem::bank_select_byte): entry s is 1 when the CBT chunk of a block
  /// with select byte s, under `reverse`, is in `chunks`, else 0.
  static std::array<std::uint8_t, mem::kNumChunks> chunk_select_table(
      const std::vector<int>& chunks, bool reverse);

  /// Worker threads the access engine runs on (1 == inline on the caller).
  unsigned intra_threads() const { return engine_->threads(); }

 private:
  void run_one_epoch(bool measuring);
  void finish_epoch_accounting(bool measuring);
  /// Appends this epoch's core/MCU/chip rows to the observer's timeline.
  void sample_timeline();

  MachineConfig cfg_;
  noc::Mesh mesh_;
  noc::MemorySystem memsys_;
  std::vector<mem::SetAssocCache> banks_;
  std::vector<AppSlot> slots_;
  std::unique_ptr<Scheme> scheme_;
  EpochPlan plan_;
  std::unique_ptr<AccessEngine> engine_;
  noc::TrafficStats traffic_;
  std::uint64_t interleave_batch_ = kInterleaveBatch;
  std::uint64_t epoch_ = 0;
  std::uint64_t invalidated_lines_ = 0;
  std::vector<std::uint64_t> epoch_targets_;  // Scratch: accesses per core.

  // Observability (nullable, not owned).  prev_* snapshots turn cumulative
  // counters into per-epoch deltas for the timeline sampler.
  obs::Observer* obs_ = nullptr;
  EpochChecker* checker_ = nullptr;  // Nullable, not owned.
  noc::TrafficStats prev_traffic_;
  std::uint64_t prev_invalidated_lines_ = 0;
  std::vector<std::uint64_t> prev_hits_, prev_misses_;
};

}  // namespace delta::sim
