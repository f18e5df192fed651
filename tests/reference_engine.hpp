// Frozen copy of the serial issue loop the chip ran before the staged
// engine (sim/intra.hpp) became its only access engine.  It is the
// reference implementation of AccessEngine::run_epoch: round-robin batches
// of Chip::kInterleaveBatch accesses per core, each access applied to its bank
// on the spot, per-access double additions to the slot's latency and hop
// sums, and one MCU request_latency() call per miss.  tests/test_intra.cpp
// installs it with sim::set_access_engine_factory() and requires the
// staged engine to match it byte for byte.
// Do not "fix" or optimise this copy; its value is that it never changes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/chip.hpp"

namespace delta::test {

class ReferenceEngine final : public sim::AccessEngine {
 public:
  void run_epoch(const sim::EpochAccess& io) override {
    // The chip zeroes every active slot's epoch_accesses before the call.
    bool work_left = true;
    while (work_left) {
      work_left = false;
      for (std::size_t c = 0; c < io.slots.size(); ++c) {
        const sim::AppSlot& s = io.slots[c];
        const std::uint64_t target = io.targets[c];
        if (!s.active || s.epoch_accesses >= target) continue;
        access_batch(io, static_cast<CoreId>(c),
                     std::min(sim::Chip::kInterleaveBatch, target - s.epoch_accesses));
        if (s.epoch_accesses < target) work_left = true;
      }
    }
  }

  unsigned threads() const override { return 1; }

  static std::unique_ptr<sim::AccessEngine> make(const sim::MachineConfig&) {
    return std::make_unique<ReferenceEngine>();
  }

 private:
  static void access_batch(const sim::EpochAccess& io, CoreId c, std::uint64_t count) {
    sim::AppSlot& s = io.slots[static_cast<std::size_t>(c)];
    const sim::EpochPlan& plan = io.plan;
    std::vector<BlockAddr> blocks(count);
    s.gen->fill(blocks.data(), count);
    std::uint64_t hits = 0, misses = 0, remote = 0;
    for (const BlockAddr block : blocks) {
      if (s.umon != nullptr) s.umon->access(block);

      const BankId b = plan.route[static_cast<std::size_t>(c)][(block >> plan.bank_shift) &
                                                               0xFFu];
      const std::uint32_t set =
          static_cast<std::uint32_t>(block >> plan.set_shift) & plan.set_mask;
      const int hops = io.mesh.hops(c, b);
      Cycles lat = io.mesh.round_trip(c, b) + io.llc_latency;
      remote += hops > 0 ? 1 : 0;

      const mem::AccessResult res =
          io.banks[static_cast<std::size_t>(b)].access(set, block, c, plan.mask(c, b));
      if (res.hit) {
        ++hits;
      } else {
        const int mcu = io.memsys.mcu_for(block);
        const int attach = io.memsys.attach_tile(mcu);
        lat += io.mesh.round_trip(b, attach) + io.memsys.mcu(mcu).request_latency();
        ++misses;
      }

      s.epoch_lat_sum += static_cast<double>(lat);
      if (io.measuring) {
        s.lat_sum += static_cast<double>(lat);
        s.hop_sum += static_cast<double>(hops);
      }
    }

    io.traffic.count(noc::MsgType::kLlcRequest, remote);
    io.traffic.count(noc::MsgType::kLlcResponse, remote);
    io.traffic.count(noc::MsgType::kMemRequest, misses);
    io.traffic.count(noc::MsgType::kMemResponse, misses);
    s.epoch_accesses += count;
    if (io.measuring) {
      s.llc_hits += hits;
      s.llc_misses += misses;
    }
  }
};

/// Installs the reference engine for every chip constructed in its scope.
class ReferenceEngineScope {
 public:
  ReferenceEngineScope() { sim::set_access_engine_factory(&ReferenceEngine::make); }
  ~ReferenceEngineScope() { sim::set_access_engine_factory(nullptr); }
  ReferenceEngineScope(const ReferenceEngineScope&) = delete;
  ReferenceEngineScope& operator=(const ReferenceEngineScope&) = delete;
};

}  // namespace delta::test
