#include "sim/scheme_common.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "sim/chip.hpp"

namespace delta::sim {

void EpochPlan::init(int n, int log2_sets, mem::WayMask all) {
  banks = n;
  sets_log2 = log2_sets;
  route.resize(static_cast<std::size_t>(n));
  reach.resize(static_cast<std::size_t>(n));
  masks.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), all);
  monitors = false;
  home();
}

void EpochPlan::interleave() {
  bank_shift = 0;
  set_shift = std::bit_width(static_cast<unsigned>(banks)) - 1;
  set_mask = (std::uint32_t{1} << sets_log2) - 1;
  const auto bank_bits = static_cast<unsigned>(banks - 1);
  BankSet all;
  for (BankId b = 0; b < banks; ++b) all.insert(b);
  for (Route& r : route)
    for (unsigned v = 0; v < r.size(); ++v)
      r[v] = static_cast<std::uint8_t>(v & bank_bits);
  std::fill(reach.begin(), reach.end(), all);
}

void EpochPlan::home() {
  bank_shift = sets_log2;
  set_shift = 0;
  set_mask = (std::uint32_t{1} << sets_log2) - 1;
  for (std::size_t c = 0; c < route.size(); ++c) {
    route[c].fill(static_cast<std::uint8_t>(c));
    reach[c] = BankSet{};
    reach[c].insert(static_cast<BankId>(c));
  }
}

void EpochPlan::route_cbt(CoreId core, const core::Cbt& cbt) {
  bank_shift = sets_log2;
  set_shift = 0;
  set_mask = (std::uint32_t{1} << sets_log2) - 1;
  const auto& map = cbt.select_map();
  std::transform(map.begin(), map.end(), route[static_cast<std::size_t>(core)].begin(),
                 [](BankId b) { return static_cast<std::uint8_t>(b); });
  // The CBT's ranges cover every chunk, so their banks are the map's.
  BankSet& set = reach[static_cast<std::size_t>(core)];
  set = BankSet{};
  for (const core::CbtRange& r : cbt.ranges()) set.insert(r.bank);
}

void EpochPlan::masks_from(BankId bank, const core::WpUnit& wp) {
  // O(cores + ways): clear the bank's column, then OR each way into its
  // owner's mask, instead of one O(ways) wp.mask_of() scan per core.
  const auto n = static_cast<std::size_t>(banks);
  mem::WayMask* const column = masks.data() + static_cast<std::size_t>(bank);
  for (std::size_t c = 0; c < n; ++c) column[c * n] = 0;
  for (int w = 0; w < wp.ways(); ++w) {
    const CoreId owner = wp.owner(w);
    if (owner >= 0 && owner < banks)
      column[static_cast<std::size_t>(owner) * n] |= mem::WayMask{1} << w;
  }
}

void EpochPlan::fill_masks(mem::WayMask m) { std::fill(masks.begin(), masks.end(), m); }

void publish_central_state(Chip& chip, const std::vector<core::WpUnit>& wp,
                           const std::vector<core::Cbt>& cbts) {
  EpochPlan& plan = chip.plan();
  for (std::size_t b = 0; b < wp.size(); ++b)
    plan.masks_from(static_cast<BankId>(b), wp[b]);
  for (std::size_t c = 0; c < cbts.size(); ++c)
    plan.route_cbt(static_cast<CoreId>(c), cbts[c]);
}

void init_central_state(const Chip& chip, std::vector<core::WpUnit>& wp,
                        std::vector<core::Cbt>& cbts) {
  const int n = chip.cores();
  wp.clear();
  cbts.clear();
  for (int t = 0; t < n; ++t) {
    wp.emplace_back(chip.config().ways_per_bank, static_cast<CoreId>(t));
    cbts.emplace_back(static_cast<BankId>(t),
                      chip.config().delta.reverse_chunk_bits);
  }
}

void apply_central_placement(Chip& chip, std::uint64_t epoch,
                             const std::vector<int>& active_core,
                             const alloc::Placement& placement,
                             std::vector<core::WpUnit>& wp,
                             std::vector<core::Cbt>& cbts) {
  const int n = chip.cores();
  // Re-own ways bank by bank: home app's ways first, then guests by core
  // id, assigned to ascending way indices deterministically.
  for (int b = 0; b < n; ++b) {
    core::WpUnit unit(chip.config().ways_per_bank, kInvalidCore);
    int w = 0;
    auto fill = [&](std::size_t app_idx) {
      const int count = placement[app_idx][static_cast<std::size_t>(b)];
      for (int i = 0; i < count && w < chip.config().ways_per_bank; ++i)
        unit.set_owner(w++, static_cast<CoreId>(active_core[app_idx]));
    };
    // Home app first for a stable "home ways at the bottom" layout.
    for (std::size_t a = 0; a < active_core.size(); ++a)
      if (active_core[a] == b) fill(a);
    for (std::size_t a = 0; a < active_core.size(); ++a)
      if (active_core[a] != b) fill(a);
    // Unassigned ways default to the home core so idle capacity stays local.
    for (; w < chip.config().ways_per_bank; ++w)
      unit.set_owner(w, static_cast<CoreId>(b));
    wp[static_cast<std::size_t>(b)] = unit;
  }

  // Rebuild CBTs (banks ordered home-first then by distance) and apply
  // the invalidations the remaps imply.
  for (std::size_t a = 0; a < active_core.size(); ++a) {
    const CoreId core = static_cast<CoreId>(active_core[a]);
    std::vector<std::pair<BankId, int>> bank_ways;
    bank_ways.emplace_back(static_cast<BankId>(core),
                           placement[a][static_cast<std::size_t>(core)]);
    for (int b : chip.mesh().by_distance(core)) {
      const int ways = placement[a][static_cast<std::size_t>(b)];
      if (ways > 0) bank_ways.emplace_back(static_cast<BankId>(b), ways);
    }
    if (bank_ways.size() == 1 && bank_ways[0].second == 0)
      bank_ways[0].second = 1;  // Degenerate: keep home mapping.

    core::Cbt& cbt = cbts[static_cast<std::size_t>(core)];
    // DELTA-enforcement semantics (Sec. II-C1): the CBT is updated only
    // when capacity expands to / retreats from a bank; pure way-count
    // drift inside already-held banks does not remap addresses.
    bool bank_set_changed = false;
    {
      std::vector<BankId> old_banks, new_banks;
      for (const auto& r : cbt.ranges()) old_banks.push_back(r.bank);
      for (const auto& [bank, ways] : bank_ways) new_banks.push_back(bank);
      std::sort(old_banks.begin(), old_banks.end());
      std::sort(new_banks.begin(), new_banks.end());
      bank_set_changed = old_banks != new_banks;
    }
    if (!bank_set_changed) continue;
    const core::Cbt prev = cbt;
    cbt.rebuild(bank_ways, chip.event_sink(), epoch, core);

    std::map<BankId, std::vector<int>> moved;
    for (int chunk : cbt.changed_chunks(prev))
      moved[prev.bank_for_chunk(chunk)].push_back(chunk);
    for (const auto& [old_bank, chunks] : moved)
      chip.invalidate_core_chunks(core, old_bank, chunks);
  }
}

}  // namespace delta::sim
