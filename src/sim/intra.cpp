#include "sim/intra.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>

namespace delta::sim {
namespace {

/// How many accesses ahead (along the run, or along the bank's sequence
/// in a dense merge) apply prefetches the set: far enough to cover a set's
/// miss latency behind the mask/latency work of the accesses in between.
constexpr std::size_t kPrefetchDistance = 8;

/// What every access of one bank's apply reads besides the kernel: the set
/// geometry, the controller interleave, the per-MCU miss latencies and the
/// per-MCU request counts.  Callers hold it in a local, like the kernel.
struct BankPass {
  int set_shift;
  std::uint32_t set_mask;
  noc::MemorySystem::Interleave mcu_of;
  const Cycles* mcu_lat;
  std::uint64_t* mcu_reqs;

  std::uint32_t set_of(BlockAddr block) const {
    return static_cast<std::uint32_t>(block >> set_shift) & set_mask;
  }
};

/// One core's hits, misses and miss latency over a stretch of its run.
struct SegmentCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t lat = 0;
};

/// The per-access loop of a run segment, shared by the sparse walk and the
/// private path: applies block_of(it) for each position from `it` while
/// more(it), in order, through the bank's kernel for `core` with `mask`;
/// counts hits, misses and miss latency into `n` and requests into the
/// pass's per-MCU counts; returns the first position not applied.  While
/// an access is applied, the set kPrefetchDistance positions further on
/// (if `end` is that far) is prefetched.
template <int kLanes, typename It, typename BlockOf, typename More>
[[gnu::always_inline]] inline It apply_segment(mem::SetAssocCache::Kernel<kLanes>& bank,
                                               const BankPass& pass, It it, const It end,
                                               BlockOf block_of, More more, CoreId core,
                                               mem::WayMask mask, SegmentCounts& n) {
  while (more(it)) {
    const BlockAddr block = block_of(it);
    // Pull a later access's set record toward L1 while this one is applied
    // (hint only — no state change).
    if (static_cast<std::size_t>(end - it) > kPrefetchDistance)
      bank.prefetch(pass.set_of(block_of(it + kPrefetchDistance)));
    ++it;
    if (bank.access(pass.set_of(block), block, core, mask)) {
      ++n.hits;
    } else {
      const int mcu = pass.mcu_of(block);
      n.lat += pass.mcu_lat[mcu];
      ++n.misses;
      ++pass.mcu_reqs[mcu];
    }
  }
  return it;
}

}  // namespace

IntraEngine::IntraEngine(int cores, int mcus, unsigned threads)
    : cores_(static_cast<std::uint32_t>(cores)),
      pool_(threads),
      stage_claim_(cores_),
      apply_claim_(cores_),
      reduce_claim_(cores_),
      profile_(threads) {
  pool_.set_hooks(&profile_);
  const std::size_t n = cores_;
  const auto n_mcus = static_cast<std::size_t>(mcus);
  stages_.resize(n);
  tallies_.resize(n);
  remote_.resize(n);
  private_bank_.assign(n, kInvalidBank);
  bank_private_.assign(n, 0);
  wstats_.resize(pool_.parties());
  for (CoreStage& st : stages_) st.offs.assign(n + 1, 0);
  for (BankTally& t : tallies_) {
    t.hits.resize(n);
    t.misses.resize(n);
    t.miss_lat.resize(n);
    t.mcu_reqs.resize(n_mcus);
    t.mcu_lat.resize(n_mcus);
    t.runs.reserve(n);
  }
}

template <bool kMonitor, bool kRoute>
void IntraEngine::stage_stream(const EpochAccess& io, CoreId c, CoreStage& st) {
  const AppSlot& s = io.slots[static_cast<std::size_t>(c)];
  const BlockAddr* const blocks = st.blocks.data();
  std::uint8_t* const banks = st.banks.data();
  std::uint32_t* const offs = st.offs.data();
  BlockAddr* const sampled = st.sampled.data();
  const EpochPlan::Route& route = io.plan.route[static_cast<std::size_t>(c)];
  const int bank_shift = io.plan.bank_shift;
  const std::size_t n = st.n;
  // The monitor's own sampling rule, copied into locals once.  Each block
  // is appended to the sampled buffer unconditionally and the cursor only
  // advances past a sampled one, so the loop has no data-dependent branch;
  // the monitor then takes the sampled blocks in stream order.
  umon::Umon::Sampler sample{};
  if constexpr (kMonitor) sample = s.umon->sampler();
  // Run lengths go to kCounters interleaved count rows: a core sends most
  // of its accesses to one bank under DELTA, and a single row would chain
  // every increment through a store and a reload of the same word.
  constexpr std::size_t kCounters = 4;
  std::uint32_t counts[kCounters][256] = {};
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BlockAddr block = blocks[i];
    if constexpr (kMonitor) {
      sampled[k] = block;
      k += sample.sampled(block) ? 1 : 0;
    }
    if constexpr (kRoute) {
      const std::uint8_t bank = route[(block >> bank_shift) & 0xFFu];
      banks[i] = bank;
      ++counts[i % kCounters][bank];
    }
  }
  if constexpr (kRoute) {
    const std::size_t n_banks = st.offs.size() - 1;
    for (std::size_t b = 0; b < n_banks; ++b) {
      std::uint32_t len = 0;
      for (const auto& row : counts) len += row[b];
      offs[b + 1] = len;
    }
  }
  if constexpr (kMonitor) s.umon->feed(sampled, k);
}

void IntraEngine::stage_core(const EpochAccess& io, CoreId c) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kStageCore);
  const AppSlot& s = io.slots[static_cast<std::size_t>(c)];
  CoreStage& st = stages_[static_cast<std::size_t>(c)];
  const std::uint64_t target = io.targets[static_cast<std::size_t>(c)];
  std::fill(st.offs.begin(), st.offs.end(), 0);
  st.n = s.active ? static_cast<std::size_t>(target) : 0;
  if (st.n == 0) return;

  // Grow-only: entries are overwritten below, so no re-initialisation.
  if (st.blocks.size() < st.n) st.blocks.resize(st.n);
  if (s.umon != nullptr && st.sampled.size() < st.n) st.sampled.resize(st.n);
  // The core's whole epoch stream in one draw: one RNG chain, the same
  // blocks batch-by-batch draws would give.
  s.gen->fill(st.blocks.data(), st.n);
  if (const BankId b = private_bank_[static_cast<std::size_t>(c)]; b != kInvalidBank) {
    stage_private(io, c, b, st);
    return;
  }
  if (st.banks.size() < st.n) {
    st.banks.resize(st.n);
    st.idx.resize(st.n);
  }
  if (s.umon != nullptr)
    stage_stream<true, true>(io, c, st);
  else
    stage_stream<false, true>(io, c, st);

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

void IntraEngine::stage_private(const EpochAccess& io, CoreId c, BankId b,
                                CoreStage& st) {
  if (io.slots[static_cast<std::size_t>(c)].umon != nullptr)
    stage_stream<true, false>(io, c, st);
  // The run table: the single run [0, n) at b.  No route bytes, no sort,
  // no idx: apply_bank(b) has nothing left to merge.
  const auto n = static_cast<std::uint32_t>(st.n);
  std::fill(st.offs.begin() + b + 1, st.offs.end(), n);

  BankTally& tally = tallies_[static_cast<std::size_t>(b)];
  open_tally(io, b, tally);
  mem::SetAssocCache& bank = io.banks[static_cast<std::size_t>(b)];
  const mem::WayMask mask = io.plan.mask(c, b);
  if (bank.lanes() == 16)
    apply_private<16>(io, bank, tally, c, mask, st);
  else
    apply_private<simd::kMaxRankLanes>(io, bank, tally, c, mask, st);
}

template <int kLanes>
void IntraEngine::apply_private(const EpochAccess& io, mem::SetAssocCache& cache,
                                BankTally& tally, CoreId c, mem::WayMask mask,
                                const CoreStage& st) {
  // The bank sees exactly this core's stream in draw order: one segment.
  mem::SetAssocCache::Kernel<kLanes> bank(cache);
  const BankPass pass{io.plan.set_shift, io.plan.set_mask, io.memsys.interleave(),
                      tally.mcu_lat.data(), tally.mcu_reqs.data()};
  const BlockAddr* const begin = st.blocks.data();
  const BlockAddr* const end = begin + st.n;
  SegmentCounts n;
  apply_segment(
      bank, pass, begin, end, [](const BlockAddr* p) { return *p; },
      [end](const BlockAddr* p) { return p != end; }, c, mask, n);
  const auto ci = static_cast<std::size_t>(c);
  tally.hits[ci] = n.hits;
  tally.misses[ci] = n.misses;
  tally.miss_lat[ci] = n.lat;
}

void IntraEngine::open_tally(const EpochAccess& io, BankId b, BankTally& tally) {
  std::fill(tally.hits.begin(), tally.hits.end(), 0);
  std::fill(tally.misses.begin(), tally.misses.end(), 0);
  std::fill(tally.miss_lat.begin(), tally.miss_lat.end(), 0);
  std::fill(tally.mcu_reqs.begin(), tally.mcu_reqs.end(), 0);
  // What a miss from this bank adds per MCU: the bank-to-controller round
  // trip plus the controller's request latency, both epoch-constant.
  const noc::MemorySystem& memsys = io.memsys;
  for (std::size_t m = 0; m < tally.mcu_lat.size(); ++m) {
    const int mcu = static_cast<int>(m);
    tally.mcu_lat[m] = io.mesh.round_trip(b, memsys.attach_tile(mcu)) +
                       memsys.mcu(mcu).current_request_latency();
  }
}

void IntraEngine::apply_bank(const EpochAccess& io, BankId b) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kApplyBank);
  // A private pair's stage task already applied this bank.
  if (bank_private_[static_cast<std::size_t>(b)] != 0) return;
  BankTally& tally = tallies_[static_cast<std::size_t>(b)];
  open_tally(io, b, tally);

  // Contributors in ascending core order: the only cores the merge visits,
  // each with its plan mask for this bank.  `next` tracks the lowest
  // unconsumed stream index across them, which names the next round.
  const EpochPlan& plan = io.plan;
  std::vector<Run>& runs = tally.runs;
  runs.clear();
  std::uint32_t next = UINT32_MAX;
  for (std::uint32_t c = 0; c < cores_; ++c) {
    CoreStage& st = stages_[c];
    const std::uint32_t begin = st.offs[static_cast<std::size_t>(b)];
    const std::uint32_t end = st.offs[static_cast<std::size_t>(b) + 1];
    if (begin == end) continue;
    const std::uint32_t* const it = st.idx.data() + begin;
    runs.push_back(Run{it, st.idx.data() + end, st.blocks.data(), static_cast<CoreId>(c),
                       plan.mask(static_cast<CoreId>(c), b)});
    next = std::min(next, *it);
  }

  mem::SetAssocCache& bank = io.banks[static_cast<std::size_t>(b)];
  if (bank.lanes() == 16)
    merge_bank<16>(io, bank, tally, next);
  else
    merge_bank<simd::kMaxRankLanes>(io, bank, tally, next);
}

template <int kLanes>
void IntraEngine::merge_bank(const EpochAccess& io, mem::SetAssocCache& cache,
                             BankTally& tally, std::uint32_t next) {
  // Everything the loops read per access is a local: the kernel's view of
  // the bank, the set geometry and the controller interleave.  The kernel
  // stores its rows through types that may alias anything, so state read
  // through a pointer would be reloaded after every access.
  mem::SetAssocCache::Kernel<kLanes> bank(cache);
  const BankPass pass{io.plan.set_shift, io.plan.set_mask, io.memsys.interleave(),
                      tally.mcu_lat.data(), tally.mcu_reqs.data()};
  std::vector<Run>& runs = tally.runs;

  // Canonical merge: the bank sees its accesses in ascending (round, core,
  // index) order with round = index / batch.  Each run is already
  // ascending and runs are in core order.
  std::size_t total = 0;
  std::uint32_t last = 0;
  for (const Run& r : runs) {
    total += static_cast<std::size_t>(r.end - r.it);
    last = std::max(last, r.end[-1]);
  }
  // index / batch by multiply-high: ceil(2^64 / batch) is exact for every
  // 32-bit index (batch 1, whose constant overflows, is the identity).
  const std::uint64_t batch = io.batch;
  const std::uint64_t magic = batch > 1 ? UINT64_MAX / batch + 1 : 0;
  const auto round_of = [magic](std::uint32_t i) {
    return magic == 0 ? i
                      : static_cast<std::uint32_t>(
                            (static_cast<unsigned __int128>(magic) * i) >> 64);
  };
  const std::size_t rounds = runs.empty() ? 0 : std::size_t{round_of(last)} + 1;

  if (2 * runs.size() * rounds >= total) {
    // Dense: a run visit per two accesses or more (every core spread over
    // every bank), where a walk would pay an unpredictable exit per visit.
    // A stable counting sort by round lists the accesses instead: runs in
    // core order, each ascending, so equal rounds keep (core, index)
    // order.  Its passes have no data-dependent branch, and the apply loop
    // prefetches along the bank's own sequence.
    if (tally.seq_blocks.size() < total) {
      tally.seq_blocks.resize(total);
      tally.seq_runs.resize(total);
    }
    BlockAddr* const seq_blocks = tally.seq_blocks.data();
    std::uint8_t* const seq_runs = tally.seq_runs.data();
    std::vector<std::uint32_t>& pos = tally.round_pos;
    pos.assign(rounds, 0);
    for (const Run& r : runs)
      for (const std::uint32_t* it = r.it; it != r.end; ++it) ++pos[round_of(*it)];
    std::uint32_t start = 0;
    for (std::uint32_t& p : pos) start += std::exchange(p, start);
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const Run& r = runs[k];
      for (const std::uint32_t* it = r.it; it != r.end; ++it) {
        const std::uint32_t q = pos[round_of(*it)]++;
        seq_blocks[q] = r.blocks[*it];
        seq_runs[q] = static_cast<std::uint8_t>(k);
      }
    }
    std::uint64_t* const hits = tally.hits.data();
    std::uint64_t* const misses = tally.misses.data();
    std::uint64_t* const miss_lat = tally.miss_lat.data();
    const Run* const run_of = runs.data();
    for (std::size_t q = 0; q < total; ++q) {
      // The same prefetch hint as apply_segment's, along the sequence.
      if (q + kPrefetchDistance < total)
        bank.prefetch(pass.set_of(seq_blocks[q + kPrefetchDistance]));
      const BlockAddr block = seq_blocks[q];
      const Run& r = run_of[seq_runs[q]];
      const auto ci = static_cast<std::size_t>(r.core);
      if (bank.access(pass.set_of(block), block, r.core, r.mask)) {
        ++hits[ci];
      } else {
        const int mcu = pass.mcu_of(block);
        miss_lat[ci] += pass.mcu_lat[mcu];
        ++misses[ci];
        ++pass.mcu_reqs[mcu];
      }
    }
    return;
  }

  // Sparse: few long runs.  One walk per round visits the runs; a run that
  // leaves the round reports its next index, and the lowest of those
  // starts the next round.  Each visit (a run segment) runs apply_segment
  // with its run's cursor, mask and core in locals, and writes the
  // segment's counts to the bank tally once when it leaves.
  while (next != UINT32_MAX) {
    // Stream indices below this bound belong to the round.
    const std::uint64_t round_end = (next / batch + 1) * batch;
    next = UINT32_MAX;
    for (Run& r : runs) {
      const std::uint32_t* const end = r.end;
      const BlockAddr* const blocks = r.blocks;
      SegmentCounts n;
      const std::uint32_t* const it = apply_segment(
          bank, pass, r.it, end, [blocks](const std::uint32_t* p) { return blocks[*p]; },
          [end, round_end](const std::uint32_t* p) { return p != end && *p < round_end; },
          r.core, r.mask, n);
      r.it = it;
      const auto ci = static_cast<std::size_t>(r.core);
      tally.hits[ci] += n.hits;
      tally.misses[ci] += n.misses;
      tally.miss_lat[ci] += n.lat;
      if (it != end) next = std::min(next, *it);
    }
  }
}

void IntraEngine::reduce_core(const EpochAccess& io, CoreId c) {
  const obs::prof::ScopedSite timer(obs::prof::Site::kReduceCore);
  AppSlot& s = io.slots[static_cast<std::size_t>(c)];
  const CoreStage& st = stages_[static_cast<std::size_t>(c)];
  const noc::Mesh& mesh = io.mesh;
  // Every latency and hop count is a whole number, and every partial sum
  // stays far below 2^53, so per-access double additions are exact:
  // folding exact integer totals once gives bit-equal doubles.  A run's
  // accesses all pay the core-to-bank round trip; misses add the apply
  // task's per-MCU latencies on top.
  std::uint64_t remote = 0, hops_total = 0, lat_total = 0;
  const std::size_t banks = st.offs.size() - 1;
  for (std::size_t b = 0; b < banks; ++b) {
    const std::uint64_t len = st.offs[b + 1] - st.offs[b];
    if (len == 0) continue;
    const auto bank = static_cast<BankId>(b);
    const std::uint64_t hops = static_cast<std::uint64_t>(mesh.hops(c, bank));
    remote += hops > 0 ? len : 0;
    hops_total += len * hops;
    lat_total += len * (mesh.round_trip(c, bank) + io.llc_latency) +
                 tallies_[b].miss_lat[static_cast<std::size_t>(c)];
  }
  remote_[static_cast<std::size_t>(c)] = remote;
  s.epoch_lat_sum += static_cast<double>(lat_total);
  if (io.measuring) {
    s.lat_sum += static_cast<double>(lat_total);
    s.hop_sum += static_cast<double>(hops_total);
  }
  s.epoch_accesses += st.n;
}

void IntraEngine::record_buffer_occupancy() {
  for (const CoreStage& st : stages_)
    for (std::size_t b = 0; b + 1 < st.offs.size(); ++b)
      profile_.add_occupancy(st.offs[b + 1] - st.offs[b]);
}

void IntraEngine::find_private_pairs(const EpochAccess& io) {
  // A core contributes when it has accesses this epoch.  `once` holds
  // the banks some contributor's route names, `twice` those two or more
  // name; a contributor whose route names one bank that no other
  // contributor names is that bank's only source.
  const auto contributes = [&io](std::size_t c) {
    return io.slots[c].active && io.targets[c] > 0;
  };
  EpochPlan::BankSet once, twice;
  for (std::size_t c = 0; c < cores_; ++c) {
    if (!contributes(c)) continue;
    const EpochPlan::BankSet& r = io.plan.reach[c];
    for (std::size_t w = 0; w < r.words.size(); ++w) {
      twice.words[w] |= once.words[w] & r.words[w];
      once.words[w] |= r.words[w];
    }
  }
  std::fill(bank_private_.begin(), bank_private_.end(), 0);
  for (std::size_t c = 0; c < cores_; ++c) {
    BankId& pb = private_bank_[c];
    pb = kInvalidBank;
    if (!contributes(c)) continue;
    const BankId b = io.plan.reach[c].sole();
    if (b == kInvalidBank || twice.contains(b)) continue;
    pb = b;
    bank_private_[static_cast<std::size_t>(b)] = 1;
  }
}

bool IntraEngine::await_all(const std::atomic<std::uint32_t>& counter) const {
  // The acquire load that sees every core pairs with every task's release
  // increment, so everything the previous phase wrote is visible here.
  while (counter.load(std::memory_order_acquire) < cores_) {
    if (failed_.load(std::memory_order_relaxed)) return false;
    std::this_thread::yield();
  }
  return true;
}

void IntraEngine::worker_run(const EpochAccess& io, unsigned w) {
  const unsigned parts = pool_.parties();
  ClaimSet::Counts& ws = wstats_[static_cast<std::size_t>(w)];
  // Stage claims are relaxed: a core's RNG/monitor state was last written
  // in the previous epoch and is published by the pool's barriers.
  ws += stage_claim_.run(parts, w, failed_, [&](std::size_t c) {
    profile_.task_begin(w, obs::prof::Phase::kStage);
    stage_core(io, static_cast<CoreId>(c));
    stage_done_.fetch_add(1, std::memory_order_release);
  });
  if (!await_all(stage_done_)) return;

  ws += apply_claim_.run(parts, w, failed_, [&](std::size_t b) {
    profile_.task_begin(w, obs::prof::Phase::kApply);
    apply_bank(io, static_cast<BankId>(b));
    banks_done_.fetch_add(1, std::memory_order_release);
  });
  if (!await_all(banks_done_)) return;

  ws += reduce_claim_.run(parts, w, failed_, [&](std::size_t c) {
    profile_.task_begin(w, obs::prof::Phase::kReduce);
    reduce_core(io, static_cast<CoreId>(c));
  });
}

void IntraEngine::run_epoch(const EpochAccess& io) {
  stage_claim_.reset();
  apply_claim_.reset();
  reduce_claim_.reset();
  stage_done_.store(0, std::memory_order_relaxed);
  banks_done_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  for (ClaimSet::Counts& ws : wstats_) ws = ClaimSet::Counts{};
  find_private_pairs(io);

  // One pool section per epoch (two barrier crossings) for all three
  // phases.
  profile_.begin_section(io.epoch);
  pool_.run([&](unsigned w) { worker_run(io, w); });
  profile_.end_section();
  if (profile_.armed()) record_buffer_occupancy();

  const obs::prof::ScopedSpan tail_span(obs::prof::Phase::kSerialTail, io.epoch);
  // The owner folds the integer tallies in fixed bank order.
  std::uint64_t total_remote = 0, total_misses = 0;
  for (std::size_t c = 0; c < cores_; ++c) total_remote += remote_[c];
  for (std::size_t c = 0; c < cores_; ++c) {
    std::uint64_t hits = 0, misses = 0;
    for (const BankTally& t : tallies_) {
      hits += t.hits[c];
      misses += t.misses[c];
    }
    total_misses += misses;
    if (io.measuring) {
      AppSlot& s = io.slots[c];
      s.llc_hits += hits;
      s.llc_misses += misses;
    }
  }
  io.traffic.count(noc::MsgType::kLlcRequest, total_remote);
  io.traffic.count(noc::MsgType::kLlcResponse, total_remote);
  io.traffic.count(noc::MsgType::kMemRequest, total_misses);
  io.traffic.count(noc::MsgType::kMemResponse, total_misses);
  const int mcus = io.memsys.num_mcus();
  for (int m = 0; m < mcus; ++m) {
    std::uint64_t reqs = 0;
    for (const BankTally& t : tallies_) reqs += t.mcu_reqs[static_cast<std::size_t>(m)];
    io.memsys.mcu(m).add_requests(reqs);
  }
  ClaimSet::Counts total;
  for (const ClaimSet::Counts& ws : wstats_) total += ws;
  profile_.end_epoch(total.tasks, total.stolen);
}

std::unique_ptr<AccessEngine> make_intra_engine(const MachineConfig& cfg) {
  return std::make_unique<IntraEngine>(
      cfg.cores, cfg.num_mcus,
      resolve_workers(cfg.intra_jobs, static_cast<std::size_t>(cfg.cores)));
}

}  // namespace delta::sim
