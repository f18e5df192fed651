#include "mem/directory.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace delta::mem {

MesifDirectory::MesifDirectory(int num_cores, std::uint64_t blocks)
    : num_cores_(num_cores), dir_(blocks) {
  assert(num_cores >= 1 && num_cores <= 64);
}

std::size_t MesifDirectory::index(BlockAddr block) const {
  if (block >= dir_.size())
    throw std::out_of_range("MesifDirectory: block " + std::to_string(block) +
                            " outside [0, " + std::to_string(dir_.size()) + ")");
  return static_cast<std::size_t>(block);
}

int MesifDirectory::popcount(std::uint64_t m) { return std::popcount(m); }

CoreId MesifDirectory::any_sharer(std::uint64_t m) {
  return m ? static_cast<CoreId>(std::countr_zero(m)) : kInvalidCore;
}

CoherenceAction MesifDirectory::on_read(CoreId core, BlockAddr block) {
  assert(core >= 0 && core < num_cores_);
  Entry& e = dir_[index(block)];
  if (e.empty()) ++tracked_;
  ++stats_.reads;
  CoherenceAction act{};

  switch (e.st) {
    case CoherenceState::kInvalid:
      e.st = CoherenceState::kExclusive;
      e.sharers = bit(core);
      e.fwd = core;
      act.from_memory = true;
      ++stats_.memory_fetches;
      break;
    case CoherenceState::kExclusive:
    case CoherenceState::kModified: {
      if (e.sharers & bit(core)) break;  // Already the holder; silent re-read.
      const CoreId holder = any_sharer(e.sharers);
      if (e.st == CoherenceState::kModified) ++stats_.writebacks;
      e.st = CoherenceState::kShared;
      e.sharers |= bit(core);
      e.fwd = core;  // MESIF: the most recent requester becomes forwarder.
      act.forwarded = true;
      act.forwarder = holder;
      ++stats_.forwards;
      break;
    }
    case CoherenceState::kShared: {
      if (e.sharers & bit(core)) break;
      const CoreId src = e.fwd != kInvalidCore ? e.fwd : any_sharer(e.sharers);
      e.sharers |= bit(core);
      e.fwd = core;
      act.forwarded = true;
      act.forwarder = src;
      ++stats_.forwards;
      break;
    }
  }
  return act;
}

CoherenceAction MesifDirectory::on_write(CoreId core, BlockAddr block) {
  assert(core >= 0 && core < num_cores_);
  Entry& e = dir_[index(block)];
  if (e.empty()) ++tracked_;
  ++stats_.writes;
  CoherenceAction act{};

  switch (e.st) {
    case CoherenceState::kInvalid:
      act.from_memory = true;
      ++stats_.memory_fetches;
      break;
    case CoherenceState::kExclusive:
    case CoherenceState::kModified:
      if (e.sharers == bit(core)) break;  // Upgrade in place.
      act.forwarded = true;
      act.forwarder = any_sharer(e.sharers);
      act.invalidations = 1;
      stats_.invalidations_sent += 1;
      ++stats_.forwards;
      if (e.st == CoherenceState::kModified) ++stats_.writebacks;
      break;
    case CoherenceState::kShared: {
      const std::uint64_t others = e.sharers & ~bit(core);
      act.invalidations = popcount(others);
      stats_.invalidations_sent += static_cast<std::uint64_t>(act.invalidations);
      if (!(e.sharers & bit(core))) {
        const CoreId src = e.fwd != kInvalidCore ? e.fwd : any_sharer(e.sharers);
        act.forwarded = true;
        act.forwarder = src;
        ++stats_.forwards;
      }
      break;
    }
  }
  e.st = CoherenceState::kModified;
  e.sharers = bit(core);
  e.fwd = core;
  return act;
}

void MesifDirectory::on_evict(CoreId core, BlockAddr block) {
  Entry& e = dir_[index(block)];
  if (!(e.sharers & bit(core))) return;
  if (e.st == CoherenceState::kModified) ++stats_.writebacks;
  e.sharers &= ~bit(core);
  if (e.sharers == 0) {
    e = Entry{};
    --tracked_;
    return;
  }
  if (e.fwd == core) e.fwd = any_sharer(e.sharers);
  if (popcount(e.sharers) == 1 && e.st == CoherenceState::kModified) {
    // Sole remaining copy of written-back data holds it exclusively.
    e.st = CoherenceState::kExclusive;
  }
}

CoherenceState MesifDirectory::state(BlockAddr block) const {
  return dir_[index(block)].st;
}

std::uint64_t MesifDirectory::sharer_mask(BlockAddr block) const {
  return dir_[index(block)].sharers;
}

bool MesifDirectory::is_sharer(CoreId core, BlockAddr block) const {
  return (sharer_mask(block) >> core) & 1;
}

CoreId MesifDirectory::forwarder(BlockAddr block) const {
  return dir_[index(block)].fwd;
}

}  // namespace delta::mem
