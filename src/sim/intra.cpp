#include "sim/intra.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>

#include "sim/chip.hpp"

namespace delta::sim {

IntraEngine::IntraEngine(Chip& chip, unsigned threads)
    : chip_(chip),
      pool_(threads, WorkerPool::Options{chip.cfg_.intra_pin}),
      stage_claim_(static_cast<std::size_t>(chip.cores())),
      apply_claim_(static_cast<std::size_t>(chip.cores())),
      reduce_claim_(static_cast<std::size_t>(chip.cores())),
      profile_(threads) {
  pool_.set_hooks(&profile_);
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  const std::size_t mcus = static_cast<std::size_t>(chip_.memsys().num_mcus());
  stages_.resize(cores);
  tallies_.resize(cores);
  remote_.resize(cores);
  wstats_.resize(pool_.parties());

  // First-touch warm pass: worker w faults in the buffers of its static
  // home cores/banks, so with pinning enabled (cfg.intra_pin) the pages
  // land on the node of the worker most likely to use them.  The profile
  // is not armed yet, so the section records nothing.
  const unsigned parties = pool_.parties();
  pool_.run([&](unsigned w) {
    const IndexRange r = static_partition(cores, parties, w);
    for (std::size_t c = r.begin; c < r.end; ++c) stages_[c].offs.assign(cores + 1, 0);
    for (std::size_t b = r.begin; b < r.end; ++b) {
      BankTally& t = tallies_[b];
      t.hits.resize(cores);
      t.misses.resize(cores);
      t.miss_lat.resize(cores);
      t.mcu_reqs.resize(mcus);
      t.mcu_lat.resize(mcus);
      t.runs.reserve(cores);
    }
  });
}

template <bool kMonitor>
void IntraEngine::stage_stream(CoreId c, CoreStage& st) {
  const AppSlot& s = chip_.slots_[static_cast<std::size_t>(c)];
  const BlockAddr* const blocks = st.blocks.data();
  std::uint8_t* const banks = st.banks.data();
  std::uint32_t* const offs = st.offs.data();
  umon::Umon* const um = s.umon.get();
  const EpochPlan::Route& route = chip_.plan_.route[static_cast<std::size_t>(c)];
  const int bank_shift = chip_.plan_.bank_shift;
  const std::size_t n = st.n;
  // The blocks are already drawn; the monitor sees them in stream order
  // (as in Chip::do_access_batch) with the next access's UMON stack
  // prefetched while the current one is routed and counted.
  for (std::size_t i = 0; i < n; ++i) {
    const BlockAddr block = blocks[i];
    if constexpr (kMonitor) {
      um->access(block);
      if (i + 1 < n) um->prefetch(blocks[i + 1]);
    }
    const std::uint8_t bank = route[(block >> bank_shift) & 0xFFu];
    banks[i] = bank;
    ++offs[static_cast<std::size_t>(bank) + 1];
  }
}

void IntraEngine::stage_core(CoreId c) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kStageCore);
  const AppSlot& s = chip_.slots_[static_cast<std::size_t>(c)];
  CoreStage& st = stages_[static_cast<std::size_t>(c)];
  const std::uint64_t target = chip_.epoch_targets_[static_cast<std::size_t>(c)];
  std::fill(st.offs.begin(), st.offs.end(), 0);
  st.n = s.active ? static_cast<std::size_t>(target) : 0;
  if (st.n == 0) return;

  // Grow-only: entries are overwritten below, so no re-initialisation.
  if (st.blocks.size() < st.n) {
    st.blocks.resize(st.n);
    st.banks.resize(st.n);
    st.idx.resize(st.n);
  }
  // The core's whole epoch stream in one draw: one RNG chain, the same
  // blocks the serial loop draws batch by batch.
  s.gen->fill(st.blocks.data(), st.n);
  if (s.umon != nullptr)
    stage_stream<true>(c, st);
  else
    stage_stream<false>(c, st);

  // Counting sort by bank.  After the prefix sum offs[b] is run b's start;
  // the scatter advances it to run b's end (= run b+1's start), and the
  // shift restores the starts.  Scanning in stream order keeps every run
  // ascending.
  std::uint32_t* const offs = st.offs.data();
  const std::uint8_t* const banks = st.banks.data();
  const std::size_t n_banks = st.offs.size() - 1;
  for (std::size_t b = 1; b <= n_banks; ++b) offs[b] += offs[b - 1];
  std::uint32_t* const idx = st.idx.data();
  for (std::size_t i = 0; i < st.n; ++i)
    idx[offs[banks[i]]++] = static_cast<std::uint32_t>(i);
  for (std::size_t b = n_banks - 1; b > 0; --b) offs[b] = offs[b - 1];
  offs[0] = 0;
}

void IntraEngine::apply_bank(BankId b, obs::prof::EngineProfile::MergeScratch* ms) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kApplyBank);
  const int cores = chip_.cores();
  BankTally& tally = tallies_[static_cast<std::size_t>(b)];
  std::fill(tally.hits.begin(), tally.hits.end(), 0);
  std::fill(tally.misses.begin(), tally.misses.end(), 0);
  std::fill(tally.miss_lat.begin(), tally.miss_lat.end(), 0);
  std::fill(tally.mcu_reqs.begin(), tally.mcu_reqs.end(), 0);

  const EpochPlan& plan = chip_.plan_;
  core::OccupancyEnforcer* const enforcer =
      plan.occupancy && !chip_.enforcers_.empty()
          ? &chip_.enforcers_[static_cast<std::size_t>(b)]
          : nullptr;
  const noc::MemorySystem& memsys = chip_.memsys_;
  const noc::Mesh& mesh = chip_.mesh_;
  // What a miss from this bank adds per MCU: the bank-to-controller round
  // trip plus the controller's request latency, both epoch-constant.
  for (std::size_t m = 0; m < tally.mcu_lat.size(); ++m) {
    const int mcu = static_cast<int>(m);
    tally.mcu_lat[m] = mesh.round_trip(b, memsys.attach_tile(mcu)) +
                       memsys.mcu(mcu).current_request_latency();
  }

  // Contributors in ascending core order: the only cores the merge visits,
  // each with its plan mask for this bank.
  std::vector<Run>& runs = tally.runs;
  runs.clear();
  for (int c = 0; c < cores; ++c) {
    CoreStage& st = stages_[static_cast<std::size_t>(c)];
    const std::uint32_t begin = st.offs[static_cast<std::size_t>(b)];
    const std::uint32_t end = st.offs[static_cast<std::size_t>(b) + 1];
    if (begin < end)
      runs.push_back(Run{st.idx.data() + begin, st.idx.data() + end, st.blocks.data(), c,
                         plan.mask(c, b)});
  }

  mem::SetAssocCache& bank = chip_.banks_[static_cast<std::size_t>(b)];
  const Cycles* const mcu_lat = tally.mcu_lat.data();
  const int set_shift = plan.set_shift;
  const std::uint32_t set_mask = plan.set_mask;
  const auto set_of = [&](BlockAddr block) {
    return static_cast<std::uint32_t>(block >> set_shift) & set_mask;
  };

  // Canonical merge: the serial loop issues round-robin batches of
  // interleave_batch() per core, so this bank saw its accesses in ascending
  // (round, core, index) order with round = index / batch.  Each run is
  // already ascending and runs are in core order; walk them round by round.
  const std::uint64_t kBatch = chip_.interleave_batch();
  for (;;) {
    // The round scan below is the serialization the merge pays for
    // determinism; at kFull profiling one round in eight is clocked (two
    // now_ns() reads) so the serial fraction can be estimated without
    // doubling the scan cost.
    const bool sample = ms != nullptr && (ms->rounds & 7u) == 0;
    const std::uint64_t scan_t0 = sample ? obs::prof::now_ns() : 0;
    // Lowest unconsumed round across the contributors.
    std::uint64_t round = UINT64_MAX;
    for (const Run& r : runs)
      if (r.it != r.end) round = std::min(round, *r.it / kBatch);
    if (ms != nullptr) {
      ++ms->rounds;
      if (sample) {
        ms->scan_ns += obs::prof::now_ns() - scan_t0;
        ++ms->sampled_rounds;
      }
    }
    if (round == UINT64_MAX) break;
    // Stream indices below this bound belong to the round.
    const std::uint64_t round_end = (round + 1) * kBatch;

    for (Run& r : runs) {
      const CoreId c = r.core;
      const auto ci = static_cast<std::size_t>(c);
      while (r.it != r.end && *r.it < round_end) {
        const BlockAddr block = r.blocks[*r.it];
        // Pull a later access's set record toward L1 while this one
        // computes its victim preference (hint only — no state change).
        if (static_cast<std::size_t>(r.end - r.it) > kPrefetchDistance)
          bank.prefetch_set(set_of(r.blocks[r.it[kPrefetchDistance]]));
        ++r.it;
        // Occupancy enforcement moves the preference on every fill, so it
        // is asked per access.
        const CoreId evict_pref =
            enforcer != nullptr ? enforcer->preferred_victim() : kInvalidCore;
        const mem::AccessResult res =
            bank.access(set_of(block), block, c, r.mask, evict_pref);
        if (res.hit) {
          ++tally.hits[ci];
        } else {
          if (enforcer != nullptr && res.way >= 0)
            enforcer->on_fill(c, res.evicted ? res.victim_owner : kInvalidCore);
          const int mcu = memsys.mcu_for(block);
          tally.miss_lat[ci] += mcu_lat[mcu];
          ++tally.misses[ci];
          ++tally.mcu_reqs[static_cast<std::size_t>(mcu)];
        }
      }
    }
  }
}

void IntraEngine::reduce_core(CoreId c, bool measuring) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kReduceCore);
  AppSlot& s = chip_.slots_[static_cast<std::size_t>(c)];
  const CoreStage& st = stages_[static_cast<std::size_t>(c)];
  const noc::Mesh& mesh = chip_.mesh_;
  const Cycles fixed_lat = chip_.cfg_.llc_tag_latency + chip_.cfg_.llc_data_latency;
  // Every latency and hop count is a whole number, and every partial sum
  // stays far below 2^53, so the serial loop's per-access double additions
  // are exact: folding exact integer totals once gives bit-equal doubles.
  // A run's accesses all pay the core-to-bank round trip; misses add the
  // apply task's per-MCU latencies on top.
  std::uint64_t remote = 0, hops_total = 0, lat_total = 0;
  const std::size_t banks = st.offs.size() - 1;
  for (std::size_t b = 0; b < banks; ++b) {
    const std::uint64_t len = st.offs[b + 1] - st.offs[b];
    if (len == 0) continue;
    const auto bank = static_cast<BankId>(b);
    const std::uint64_t hops = static_cast<std::uint64_t>(mesh.hops(c, bank));
    remote += hops > 0 ? len : 0;
    hops_total += len * hops;
    lat_total += len * (mesh.round_trip(c, bank) + fixed_lat) +
                 tallies_[b].miss_lat[static_cast<std::size_t>(c)];
  }
  remote_[static_cast<std::size_t>(c)] = remote;
  s.epoch_lat_sum += static_cast<double>(lat_total);
  if (measuring) {
    s.lat_sum += static_cast<double>(lat_total);
    s.hop_sum += static_cast<double>(hops_total);
  }
  s.epoch_accesses += st.n;
}

void IntraEngine::record_buffer_occupancy() {
  std::uint64_t pairs = 0, nonzero = 0;
  for (const CoreStage& st : stages_) {
    for (std::size_t b = 0; b + 1 < st.offs.size(); ++b) {
      const std::uint32_t len = st.offs[b + 1] - st.offs[b];
      ++pairs;
      if (len > 0) {
        ++nonzero;
        profile_.add_occupancy(len, 0, 0);
      }
    }
  }
  profile_.add_occupancy(0, pairs, nonzero);
}

bool IntraEngine::await_all(const std::atomic<std::uint32_t>& counter) const {
  const auto n = static_cast<std::uint32_t>(chip_.cores());
  // The acquire load that sees n pairs with every task's release increment,
  // so everything the previous phase wrote is visible to this worker.
  while (counter.load(std::memory_order_acquire) < n) {
    if (failed_.load(std::memory_order_relaxed)) return false;
    std::this_thread::yield();
  }
  return true;
}

void IntraEngine::worker_run(unsigned w, bool measuring) {
  const unsigned parts = pool_.parties();
  ClaimSet::Counts& ws = wstats_[static_cast<std::size_t>(w)];
  // Stage claims are relaxed: a core's RNG/monitor state was last written
  // in the previous epoch and is published by the pool's barriers.
  ws += stage_claim_.run(parts, w, failed_, [&](std::size_t c) {
    profile_.task_begin(w, obs::prof::Phase::kStage);
    stage_core(static_cast<CoreId>(c));
    stage_done_.fetch_add(1, std::memory_order_release);
  });
  if (!await_all(stage_done_)) return;

  obs::prof::EngineProfile::MergeScratch* const ms =
      profile_.armed() ? &profile_.merge_scratch(w) : nullptr;
  ws += apply_claim_.run(parts, w, failed_, [&](std::size_t b) {
    profile_.task_begin(w, obs::prof::Phase::kApply);
    apply_bank(static_cast<BankId>(b), ms);
    banks_done_.fetch_add(1, std::memory_order_release);
  });
  if (!await_all(banks_done_)) return;

  ws += reduce_claim_.run(parts, w, failed_, [&](std::size_t c) {
    profile_.task_begin(w, obs::prof::Phase::kReduce);
    reduce_core(static_cast<CoreId>(c), measuring);
  });
}

void IntraEngine::run_epoch_accesses(bool measuring) {
  const std::size_t cores = static_cast<std::size_t>(chip_.cores());
  const std::uint64_t epoch = chip_.epoch_;
  stage_claim_.reset();
  apply_claim_.reset();
  reduce_claim_.reset();
  stage_done_.store(0, std::memory_order_relaxed);
  banks_done_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  for (ClaimSet::Counts& ws : wstats_) ws = ClaimSet::Counts{};

  // One pool section per epoch (two barrier crossings) for all three
  // phases.
  profile_.begin_section(obs::prof::Phase::kPipeline, epoch);
  pool_.run([&](unsigned w) { worker_run(w, measuring); });
  profile_.end_section();
  if (profile_.armed()) record_buffer_occupancy();

  const obs::prof::ScopedSpan tail_span(obs::prof::Phase::kSerialTail, epoch);
  // Serial reduction of the integer tallies in fixed bank order.
  std::uint64_t total_remote = 0, total_misses = 0;
  for (std::size_t c = 0; c < cores; ++c) total_remote += remote_[c];
  for (std::size_t c = 0; c < cores; ++c) {
    std::uint64_t hits = 0, misses = 0;
    for (const BankTally& t : tallies_) {
      hits += t.hits[c];
      misses += t.misses[c];
    }
    total_misses += misses;
    if (measuring) {
      AppSlot& s = chip_.slots_[c];
      s.llc_hits += hits;
      s.llc_misses += misses;
    }
  }
  chip_.traffic_.count(noc::MsgType::kLlcRequest, total_remote);
  chip_.traffic_.count(noc::MsgType::kLlcResponse, total_remote);
  chip_.traffic_.count(noc::MsgType::kMemRequest, total_misses);
  chip_.traffic_.count(noc::MsgType::kMemResponse, total_misses);
  const int mcus = chip_.memsys_.num_mcus();
  for (int m = 0; m < mcus; ++m) {
    std::uint64_t reqs = 0;
    for (const BankTally& t : tallies_) reqs += t.mcu_reqs[static_cast<std::size_t>(m)];
    chip_.memsys_.mcu(m).add_requests(reqs);
  }
  profile_.end_epoch(epoch);

  // Machine-independent engine-health accounting (any profiling level).
  ClaimSet::Counts total;
  for (const ClaimSet::Counts& ws : wstats_) total += ws;
  profile_.count_epoch(/*pool_sections=*/1, total.tasks, total.stolen);
}

std::unique_ptr<IntraEngine> make_intra_engine(Chip& chip, int intra_jobs) {
  const unsigned n =
      resolve_workers(intra_jobs, static_cast<std::size_t>(chip.cores()));
  if (n <= 1) return nullptr;
  return std::make_unique<IntraEngine>(chip, n);
}

}  // namespace delta::sim
