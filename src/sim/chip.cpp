#include "sim/chip.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "mem/address.hpp"
#include "obs/prof/prof.hpp"
#include "sim/intra.hpp"

namespace delta::sim {

void MachineConfig::validate() const {
  const auto reject = [](const std::string& field, long long value, const char* rule) {
    throw std::invalid_argument("MachineConfig." + field + " = " + std::to_string(value) +
                                ": " + rule);
  };
  const auto in = [](long long v, long long lo, long long hi) {
    return v >= lo && v <= hi;
  };
  if (!in(cores, 1, 128) || (cores & (cores - 1)) != 0)
    reject("cores", cores, "must be a power of two in [1, 128]");
  if (!in(mesh_width, 1, cores) || !in(mesh_height, 1, cores) ||
      mesh_width * mesh_height != cores)
    reject("mesh_width", mesh_width, "mesh_width x mesh_height must equal cores");
  if (!in(ways_per_bank, 1, 32))
    reject("ways_per_bank", ways_per_bank, "must be in [1, 32]");
  if (!in(sets_log2, 1, 20)) reject("sets_log2", sets_log2, "must be in [1, 20]");
  if (!in(num_mcus, 1, cores)) reject("num_mcus", num_mcus, "must be in [1, cores]");
  try {
    umon.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("MachineConfig.") + e.what());
  }
}

namespace {

std::atomic<AccessEngineFactory> g_engine_factory{nullptr};

const MachineConfig& validated(const MachineConfig& cfg, std::size_t apps) {
  cfg.validate();
  if (apps != static_cast<std::size_t>(cfg.cores))
    throw std::invalid_argument("Chip apps: " + std::to_string(apps) +
                                " entries for " + std::to_string(cfg.cores) + " cores");
  return cfg;
}

}  // namespace

void set_access_engine_factory(AccessEngineFactory f) {
  g_engine_factory.store(f, std::memory_order_relaxed);
}

std::vector<workload::StreamKey> Chip::stream_keys(const MachineConfig& cfg,
                                                   const std::vector<std::string>& apps) {
  std::vector<workload::StreamKey> keys;
  if (apps.size() != static_cast<std::size_t>(cfg.cores)) return keys;
  for (int c = 0; c < cfg.cores; ++c) {
    const std::string& app = apps[static_cast<std::size_t>(c)];
    if (app.empty() || app == "idle") continue;
    if (!workload::has_spec_profile(app)) return {};
    keys.push_back({workload::spec_profile(app).short_name, c, cfg.seed});
  }
  return keys;
}

Chip::Chip(const MachineConfig& cfg, const std::vector<std::string>& apps,
           std::unique_ptr<Scheme> scheme, workload::StreamSet* streams)
    : cfg_(validated(cfg, apps.size())),
      mesh_(cfg.mesh_width, cfg.mesh_height),
      memsys_(cfg.num_mcus, cfg.mesh_width, cfg.mesh_height, cfg.mcu),
      scheme_(std::move(scheme)) {
  banks_.reserve(static_cast<std::size_t>(cfg_.cores));
  for (int b = 0; b < cfg_.cores; ++b)
    banks_.emplace_back(static_cast<std::uint32_t>(cfg_.sets_per_bank()),
                        cfg_.ways_per_bank);

  slots_.resize(static_cast<std::size_t>(cfg_.cores));
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    s.app_name = apps[static_cast<std::size_t>(c)];
    if (s.app_name.empty() || s.app_name == "idle") continue;
    s.profile = &workload::spec_profile(s.app_name);
    // Disjoint 16 GB address windows per program instance.
    s.gen = std::make_unique<workload::TraceGen>(
        *s.profile, workload::core_window_base(c), workload::core_seed(cfg_.seed, c));
    if (streams != nullptr)
      if (workload::SharedStream* shared =
              streams->find({s.profile->short_name, c, cfg_.seed}))
        s.gen->attach(*shared);
    s.active = true;
    const workload::Phase& ph = s.profile->phases.front();
    s.cpi_est = ph.cpi_base + ph.apki / 1000.0 * 100.0 / ph.mlp;
  }
  interleave_batch_ =
      cfg_.interleave_batch == 0 ? kInterleaveBatch : cfg_.interleave_batch;
  epoch_targets_.resize(static_cast<std::size_t>(cfg_.cores));
  prev_hits_.resize(static_cast<std::size_t>(cfg_.cores));
  prev_misses_.resize(static_cast<std::size_t>(cfg_.cores));
  plan_.init(cfg_.cores, cfg_.sets_log2, mem::full_mask(cfg_.ways_per_bank));
  scheme_->reset(*this);
  if (plan_.monitors)
    for (AppSlot& s : slots_)
      if (s.active) s.umon = std::make_unique<umon::Umon>(cfg_.umon);
  const AccessEngineFactory factory = g_engine_factory.load(std::memory_order_relaxed);
  engine_ = factory != nullptr ? factory(cfg_) : make_intra_engine(cfg_);
}

Chip::~Chip() = default;

void Chip::run_one_epoch(bool measuring) {
  const obs::prof::ScopedSpan epoch_span(obs::prof::Phase::kEpoch, epoch_);
  obs::prof::ScopedSpan policy_span(obs::prof::Phase::kPolicy, epoch_);
  // Phase selection + per-core access budget for this epoch.
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    if (!s.active) {
      epoch_targets_[static_cast<std::size_t>(c)] = 0;
      continue;
    }
    s.gen->set_epoch(epoch_);
    const workload::Phase& ph = s.gen->phase();
    // cpi_est feeds performance back into the access budget, so counts
    // diverge across schemes.  Lockstep mode pins the budget to the
    // profile's nominal CPI instead, making per-app access streams
    // scheme-identical — the property the differential oracle checks.
    const double cpi = cfg_.lockstep_accesses
                           ? ph.cpi_base + ph.apki / 1000.0 * 100.0 / ph.mlp
                           : s.cpi_est;
    const double instr = static_cast<double>(cfg_.epoch_cycles) / cpi;
    epoch_targets_[static_cast<std::size_t>(c)] =
        static_cast<std::uint64_t>(instr * ph.apki / 1000.0);
    s.epoch_accesses = 0;
    s.epoch_lat_sum = 0.0;
  }

  // Reconfiguration hook (reads last epoch's monitors), then monitor decay
  // at the inter-bank cadence so pain/gain track phase changes.
  scheme_->begin_epoch(*this, epoch_);
  if (cfg_.delta.inter_interval_epochs > 0 &&
      epoch_ % static_cast<std::uint64_t>(cfg_.delta.inter_interval_epochs) == 0) {
    for (auto& s : slots_)
      if (s.umon) s.umon->decay(0.5);
  }
  // Invariant sweep over the post-reconfiguration state (way conservation,
  // CBT coverage, residency agreement, ...) before any access runs on it.
  if (checker_ != nullptr) checker_->on_epoch(*this, epoch_);
  policy_span.stop();

  // The epoch's accesses, in round-robin batches of interleave_batch_.
  engine_->run_epoch(EpochAccess{
      plan_, banks_, slots_, epoch_targets_, mesh_, memsys_, traffic_,
      cfg_.llc_tag_latency + cfg_.llc_data_latency, interleave_batch_, epoch_,
      measuring});

  {
    const obs::prof::ScopedSpan acct_span(obs::prof::Phase::kAccounting, epoch_);
    memsys_.end_epoch(cfg_.epoch_cycles);
    finish_epoch_accounting(measuring);
    if (measuring && obs_ != nullptr && obs_->timeline_enabled())
      sample_timeline();
  }
  ++epoch_;
}

void Chip::sample_timeline() {
  obs::TimelineSampler& tl = obs_->timeline();
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    if (!s.active) continue;
    const std::uint64_t hits = s.llc_hits - prev_hits_[static_cast<std::size_t>(c)];
    const std::uint64_t misses =
        s.llc_misses - prev_misses_[static_cast<std::size_t>(c)];
    prev_hits_[static_cast<std::size_t>(c)] = s.llc_hits;
    prev_misses_[static_cast<std::size_t>(c)] = s.llc_misses;
    const double avg_lat =
        s.epoch_accesses > 0
            ? s.epoch_lat_sum / static_cast<double>(s.epoch_accesses)
            : 0.0;
    tl.add_core(epoch_, c, s.app_name, s.cpi_est > 0.0 ? 1.0 / s.cpi_est : 0.0,
                scheme_->allocated_ways(*this, c), hits + misses, misses, avg_lat);
  }
  for (int m = 0; m < memsys_.num_mcus(); ++m) {
    const noc::MemoryController& mc = memsys_.mcu(m);
    tl.add_mcu(epoch_, m, mc.queue_delay(), mc.utilization());
  }
  tl.add_chip(epoch_, traffic_.control_messages() - prev_traffic_.control_messages(),
              traffic_.demand_messages() - prev_traffic_.demand_messages(),
              traffic_.invalidation_messages() - prev_traffic_.invalidation_messages(),
              invalidated_lines_ - prev_invalidated_lines_);
  prev_traffic_ = traffic_;
  prev_invalidated_lines_ = invalidated_lines_;
}

void Chip::finish_epoch_accounting(bool measuring) {
  for (int c = 0; c < cfg_.cores; ++c) {
    AppSlot& s = slots_[static_cast<std::size_t>(c)];
    if (!s.active) continue;
    const workload::Phase& ph = s.gen->phase();
    const double avg_lat =
        s.epoch_accesses > 0
            ? s.epoch_lat_sum / static_cast<double>(s.epoch_accesses)
            : 0.0;
    const double cpi = ph.cpi_base + ph.apki / 1000.0 * avg_lat / ph.mlp;
    s.cpi_est = cpi;
    if (measuring) {
      s.instructions += static_cast<double>(cfg_.epoch_cycles) / cpi;
      s.cycles += cfg_.epoch_cycles;
      s.ways_sum += static_cast<double>(scheme_->allocated_ways(*this, c));
      ++s.ways_samples;
    }
  }
}

void Chip::run_epochs(int n, bool measuring) {
  for (int i = 0; i < n; ++i) run_one_epoch(measuring);
}

std::array<std::uint8_t, mem::kNumChunks> Chip::chunk_select_table(
    const std::vector<int>& chunks, bool reverse) {
  // The reversal is its own inverse: chunk c holds the blocks whose
  // select byte is reverse8(c).
  std::array<std::uint8_t, mem::kNumChunks> table{};
  for (const int c : chunks) {
    const auto sel = static_cast<std::uint8_t>(c);
    table[reverse ? mem::reverse8(sel) : sel] = 1;
  }
  return table;
}

std::uint64_t Chip::invalidate_core_chunks(CoreId core, BankId old_bank,
                                           const std::vector<int>& chunks) {
  if (chunks.empty()) return 0;
  const std::array<std::uint8_t, mem::kNumChunks> moved =
      chunk_select_table(chunks, cfg_.delta.reverse_chunk_bits);
  const int sets_log2 = cfg_.sets_log2;
  const std::uint64_t n = bank(old_bank).invalidate_if(core, [&](BlockAddr block) {
    return moved[mem::bank_select_byte(block, sets_log2)];
  });
  traffic_.count(noc::MsgType::kInvalidation);
  invalidated_lines_ += n;
  if (obs::EventRecorder* rec = event_sink())
    rec->record(obs::EventKind::kBulkInvalidation, epoch_, core, old_bank,
                /*other=*/-1, n, static_cast<double>(chunks.size()));
  return n;
}

MixResult Chip::run(const std::string& mix_name) {
  run_epochs(cfg_.warmup_epochs, /*measuring=*/false);
  traffic_.reset();
  invalidated_lines_ = 0;
  prev_traffic_.reset();
  prev_invalidated_lines_ = 0;
  run_epochs(cfg_.measure_epochs, /*measuring=*/true);

  MixResult mr;
  mr.mix = mix_name;
  mr.scheme = std::string(scheme_->name());
  mr.traffic = traffic_;
  mr.control = control_breakdown(traffic_);
  mr.invalidated_lines = invalidated_lines_;
  mr.measured_epochs = static_cast<std::uint64_t>(cfg_.measure_epochs);
  for (int c = 0; c < cfg_.cores; ++c) {
    const AppSlot& s = slots_[static_cast<std::size_t>(c)];
    AppResult a;
    a.app = s.app_name;
    a.core = c;
    if (s.active && s.cycles > 0) {
      a.instructions = static_cast<std::uint64_t>(s.instructions);
      a.ipc = s.instructions / static_cast<double>(s.cycles);
      a.cpi = a.ipc > 0.0 ? 1.0 / a.ipc : 0.0;
      a.llc_accesses = s.llc_hits + s.llc_misses;
      a.llc_misses = s.llc_misses;
      a.miss_rate = a.llc_accesses
                        ? static_cast<double>(s.llc_misses) /
                              static_cast<double>(a.llc_accesses)
                        : 0.0;
      a.mpki = s.instructions > 0.0
                   ? static_cast<double>(s.llc_misses) / (s.instructions / 1000.0)
                   : 0.0;
      a.avg_latency =
          a.llc_accesses ? s.lat_sum / static_cast<double>(a.llc_accesses) : 0.0;
      a.avg_hops =
          a.llc_accesses ? s.hop_sum / static_cast<double>(a.llc_accesses) : 0.0;
      a.avg_ways = s.ways_samples
                       ? s.ways_sum / static_cast<double>(s.ways_samples)
                       : 0.0;
    }
    mr.apps.push_back(std::move(a));
  }
  mr.geomean_ipc = workload_geomean_ipc(mr);
  return mr;
}

}  // namespace delta::sim
