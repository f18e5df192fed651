#include "core/cbt.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/recorder.hpp"

namespace delta::core {

Cbt::Cbt(BankId home_bank, bool reverse_bits) : reverse_bits_(reverse_bits) {
  rebuild({{home_bank, 1}});
}

void Cbt::rebuild(const std::vector<std::pair<BankId, int>>& bank_ways,
                  obs::EventRecorder* rec, std::uint64_t epoch, CoreId owner) {
  assert(!bank_ways.empty());
  int total = 0;
  for (const auto& [bank, ways] : bank_ways) {
    assert(ways >= 0);
    total += ways;
  }
  assert(total > 0);

  // Proportional chunk counts with largest-remainder rounding.
  std::vector<int> chunks(bank_ways.size(), 0);
  std::vector<double> remainders(bank_ways.size(), 0.0);
  int assigned = 0;
  for (std::size_t i = 0; i < bank_ways.size(); ++i) {
    const double exact = static_cast<double>(mem::kNumChunks) *
                         static_cast<double>(bank_ways[i].second) /
                         static_cast<double>(total);
    chunks[i] = static_cast<int>(exact);
    remainders[i] = exact - static_cast<double>(chunks[i]);
    assigned += chunks[i];
  }
  while (assigned < mem::kNumChunks) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < remainders.size(); ++i)
      if (remainders[i] > remainders[best]) best = i;
    ++chunks[best];
    remainders[best] = -1.0;
    ++assigned;
  }
  // A bank holding ways must map at least one chunk (otherwise its capacity
  // is unreachable); steal from the largest range if rounding starved one.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (bank_ways[i].second > 0 && chunks[i] == 0) {
      std::size_t donor = 0;
      for (std::size_t j = 1; j < chunks.size(); ++j)
        if (chunks[j] > chunks[donor]) donor = j;
      if (chunks[donor] > 1) {
        --chunks[donor];
        ++chunks[i];
      }
    }
  }

  ranges_.clear();
  int cursor = 0;
  for (std::size_t i = 0; i < bank_ways.size(); ++i) {
    if (chunks[i] == 0) continue;
    CbtRange r;
    r.first_chunk = cursor;
    r.last_chunk = cursor + chunks[i] - 1;
    r.bank = bank_ways[i].first;
    ranges_.push_back(r);
    for (int c = r.first_chunk; c <= r.last_chunk; ++c) select_map_[select_of(c)] = r.bank;
    cursor += chunks[i];
  }
  assert(cursor == mem::kNumChunks);
  last_alloc_ = bank_ways;

  if (rec != nullptr)
    rec->record(obs::EventKind::kCbtRebuild, epoch, owner,
                /*bank=*/bank_ways.front().first, /*other=*/-1,
                /*count=*/ranges_.size());
}

std::vector<int> Cbt::changed_chunks(const Cbt& prev) const {
  std::vector<int> changed;
  for (int c = 0; c < mem::kNumChunks; ++c)
    if (bank_for_chunk(c) != prev.bank_for_chunk(c))
      changed.push_back(c);
  return changed;
}

std::uint64_t Cbt::storage_bits(int num_banks) {
  const auto lg = static_cast<std::uint64_t>(std::ceil(std::log2(std::max(2, num_banks))));
  return lg * static_cast<std::uint64_t>(num_banks);
}

}  // namespace delta::core
