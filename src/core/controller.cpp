#include "core/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/recorder.hpp"

namespace delta::core {

DeltaController::DeltaController(const noc::Mesh& mesh, DeltaParams params,
                                 int ways_per_bank, int sets_log2)
    : mesh_(mesh),
      params_(params),
      ways_per_bank_(ways_per_bank),
      sets_log2_(sets_log2) {
  const int n = mesh_.tiles();
  wp_.reserve(static_cast<std::size_t>(n));
  cbts_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    wp_.emplace_back(ways_per_bank_, static_cast<CoreId>(t));
    cbts_.emplace_back(static_cast<BankId>(t), params_.reverse_chunk_bits);
    acq_order_.push_back({static_cast<BankId>(t)});
    cand_order_.push_back(mesh_.by_distance(t));
  }
  cand_cursor_.assign(static_cast<std::size_t>(n), 0);
  snap_.resize(static_cast<std::size_t>(n));
}

void DeltaController::reset() {
  const int n = mesh_.tiles();
  for (int t = 0; t < n; ++t) {
    wp_[static_cast<std::size_t>(t)].assign_all(static_cast<CoreId>(t));
    acq_order_[static_cast<std::size_t>(t)] = {static_cast<BankId>(t)};
    cbts_[static_cast<std::size_t>(t)] =
        Cbt(static_cast<BankId>(t), params_.reverse_chunk_bits);
    cand_cursor_[static_cast<std::size_t>(t)] = 0;
  }
  stats_ = DeltaStats{};
}

std::uint64_t DeltaController::storage_bits_per_tile(int num_tiles, int ways_per_bank) {
  const auto lg = static_cast<std::uint64_t>(
      std::ceil(std::log2(std::max(2, num_tiles))));
  const std::uint64_t pain_regs = (static_cast<std::uint64_t>(num_tiles) + 2) * lg;
  const std::uint64_t order_regs = (static_cast<std::uint64_t>(num_tiles) + 1) * lg;
  return pain_regs + order_regs + Cbt::storage_bits(num_tiles) +
         WpUnit::storage_bits(num_tiles, ways_per_bank);
}

int DeltaController::total_ways(CoreId core) const {
  int total = 0;
  for (BankId b : acq_order_[static_cast<std::size_t>(core)])
    total += wp_[static_cast<std::size_t>(b)].ways_of(core);
  return total;
}

int DeltaController::ways_outside_home(CoreId core) const {
  return total_ways(core) - wp_[static_cast<std::size_t>(core)].ways_of(core);
}

void DeltaController::count_msg(noc::TrafficStats* traffic, noc::MsgType type,
                                std::uint64_t n) {
  if (traffic != nullptr) traffic->count(type, n);
}

void DeltaController::snapshot_pain_gain(std::span<const TileInput> inputs) {
  for (int c = 0; c < mesh_.tiles(); ++c) {
    Snapshot& s = snap_[static_cast<std::size_t>(c)];
    const TileInput& in = inputs[static_cast<std::size_t>(c)];
    s.active = in.active && in.umon != nullptr;
    s.mlp = in.mlp > 0.0 ? in.mlp : 1.0;
    if (!s.active) {
      s.pg = PainGain{};
      continue;
    }
    s.pg = compute_pain_gain(*in.umon, total_ways(c), ways_outside_home(c),
                             params_.gain_ways, params_.pain_ways, s.mlp);
    record_pain_gain(rec_, obs_epoch_, c, s.pg);
    stats_.alu_ops += 2;  // One gain + one pain evaluation per tile.
  }
}

double DeltaController::gain_for_bank(CoreId core, BankId bank) const {
  return scale_gain(snap_[static_cast<std::size_t>(core)].pg.raw_gain,
                    mesh_.hops(core, bank));
}

TickResult DeltaController::tick(std::uint64_t epoch, std::span<const TileInput> inputs,
                                 noc::TrafficStats* traffic) {
  assert(static_cast<int>(inputs.size()) == mesh_.tiles());
  obs_epoch_ = epoch;
  TickResult result;
  const bool do_intra =
      params_.intra_interval_epochs > 0 &&
      epoch % static_cast<std::uint64_t>(params_.intra_interval_epochs) == 0;
  const bool do_inter =
      params_.inter_interval_epochs > 0 &&
      epoch % static_cast<std::uint64_t>(params_.inter_interval_epochs) == 0;
  if (!do_intra && !do_inter) return result;

  snapshot_pain_gain(inputs);
  // Inter first (coarse expansion), then intra (fine tuning), mirroring the
  // paper's description that intra-bank growth follows inter-bank entry.
  if (do_inter) inter_bank(inputs, result, traffic);
  if (do_intra) intra_bank(inputs, result, traffic);

  stats_.challenges_sent += static_cast<std::uint64_t>(result.challenges_sent);
  stats_.challenges_won += static_cast<std::uint64_t>(result.challenges_won);
  stats_.intra_transfers += static_cast<std::uint64_t>(result.intra_transfers);
  stats_.retreats += static_cast<std::uint64_t>(result.retreats);
  return result;
}

void DeltaController::inter_bank(std::span<const TileInput> inputs, TickResult& result,
                                 noc::TrafficStats* traffic) {
  (void)inputs;  // Decisions read the pain/gain snapshot taken from them.
  const int n = mesh_.tiles();
  for (CoreId challenger = 0; challenger < n; ++challenger) {
    const Snapshot& cs = snap_[static_cast<std::size_t>(challenger)];
    if (!cs.active) continue;

    const int cur_total = total_ways(challenger);
    ++stats_.alu_ops;  // Threshold comparison.
    // Alg. 1 line 4: gain above threshold, allocation above the minimum.
    if (cs.pg.raw_gain <= params_.gain_threshold || cur_total <= params_.min_ways)
      continue;
    if (cur_total >= params_.max_ways_per_app) continue;

    // Alg. 1 line 5: closest not-recently-challenged tile; the cursor
    // cycles so a tile is revisited only after all others were tried.
    auto& order = cand_order_[static_cast<std::size_t>(challenger)];
    const BankId target = order[cand_cursor_[static_cast<std::size_t>(challenger)]];
    cand_cursor_[static_cast<std::size_t>(challenger)] =
        (cand_cursor_[static_cast<std::size_t>(challenger)] + 1) % order.size();

    WpUnit& bank = wp_[static_cast<std::size_t>(target)];
    if (bank.ways_of(challenger) == bank.ways()) continue;  // Already owns it all.

    const double challenger_gain = gain_for_bank(challenger, target);
    ++result.challenges_sent;
    count_msg(traffic, noc::MsgType::kChallenge);
    count_msg(traffic, noc::MsgType::kChallengeResponse);
    if (rec_ != nullptr)
      rec_->record(obs::EventKind::kChallengeSent, obs_epoch_, challenger, target,
                   /*other=*/-1, /*count=*/0, challenger_gain);

    const Snapshot& ts = snap_[static_cast<std::size_t>(target)];
    // Idle-bank fast path: an unused home bank is handed over wholesale.
    if (!ts.active && bank.ways_of(static_cast<CoreId>(target)) > 0) {
      const int grabbed =
          bank.transfer(static_cast<CoreId>(target), challenger, bank.ways());
      if (grabbed > 0) {
        ++result.challenges_won;
        ++stats_.idle_grabs;
        count_msg(traffic, noc::MsgType::kHandover);
        if (rec_ != nullptr)
          rec_->record(obs::EventKind::kBankHandover, obs_epoch_, challenger,
                       target, /*other=*/target, static_cast<std::uint64_t>(grabbed),
                       challenger_gain);
        auto& acq = acq_order_[static_cast<std::size_t>(challenger)];
        if (std::find(acq.begin(), acq.end(), target) == acq.end())
          acq.push_back(target);
        rebuild_cbt(challenger, result, traffic);
      }
      continue;
    }

    // Alg. 1 line 10: weakest partition in the challenged bank — the home
    // partition defends with *pain*, guests defend with their *gain*.
    CoreId loser = kInvalidCore;
    double loser_value = std::numeric_limits<double>::infinity();
    for (CoreId p : bank.partitions()) {
      if (p == challenger) continue;
      ++stats_.alu_ops;
      double value;
      if (p == static_cast<CoreId>(target)) {
        // Home partition cannot drop below the reserved minimum.
        if (bank.ways_of(p) <= params_.min_ways) continue;
        value = snap_[static_cast<std::size_t>(p)].pg.pain;
      } else {
        value = gain_for_bank(p, target);
      }
      if (value < loser_value) {
        loser_value = value;
        loser = p;
      }
    }

    if (loser == kInvalidCore || loser_value >= challenger_gain) {
      if (rec_ != nullptr)
        rec_->record(obs::EventKind::kChallengeLost, obs_epoch_, challenger,
                     target, loser, /*count=*/0, challenger_gain,
                     loser == kInvalidCore ? 0.0 : loser_value);
      continue;
    }

    // Success: carve interDeltaWays out of the loser (home keeps its floor).
    int give = params_.inter_delta_ways;
    if (loser == static_cast<CoreId>(target))
      give = std::min(give, bank.ways_of(loser) - params_.min_ways);
    give = std::min(give, bank.ways_of(loser));
    give = std::min(give, params_.max_ways_per_app - cur_total);
    if (give <= 0) {
      if (rec_ != nullptr)
        rec_->record(obs::EventKind::kChallengeLost, obs_epoch_, challenger,
                     target, loser, /*count=*/0, challenger_gain, loser_value);
      continue;
    }

    const int moved = bank.transfer(loser, challenger, give);
    assert(moved == give);
    (void)moved;
    ++result.challenges_won;
    if (rec_ != nullptr) {
      rec_->record(obs::EventKind::kChallengeWon, obs_epoch_, challenger, target,
                   loser, static_cast<std::uint64_t>(give), challenger_gain,
                   loser_value);
      rec_->record(obs::EventKind::kWayTransfer, obs_epoch_, challenger, target,
                   loser, static_cast<std::uint64_t>(give), challenger_gain,
                   loser_value);
    }

    auto& acq = acq_order_[static_cast<std::size_t>(challenger)];
    const bool new_bank = std::find(acq.begin(), acq.end(), target) == acq.end();
    if (new_bank) {
      acq.push_back(target);
      rebuild_cbt(challenger, result, traffic);
    }
    // If the loser was a guest and lost its whole partition, it retreats.
    if (loser != static_cast<CoreId>(target) && bank.ways_of(loser) == 0) {
      retreat(loser, target, result, traffic);
    }
  }
}

void DeltaController::intra_bank(std::span<const TileInput> inputs, TickResult& result,
                                 noc::TrafficStats* traffic) {
  (void)inputs;
  const int n = mesh_.tiles();
  for (BankId b = 0; b < n; ++b) {
    WpUnit& bank = wp_[static_cast<std::size_t>(b)];
    const std::vector<CoreId> parts = bank.partitions();
    if (parts.size() < 2) continue;

    // Alg. 2: move intraDeltaWays from the smallest-gain partition to the
    // largest-gain one.  Only active partitions can win; the home partition
    // never drops below the reserved minimum.
    CoreId winner = kInvalidCore, loser = kInvalidCore;
    double best = -1.0, worst = std::numeric_limits<double>::infinity();
    for (CoreId p : parts) {
      ++stats_.alu_ops;
      const Snapshot& s = snap_[static_cast<std::size_t>(p)];
      const double g = s.active ? gain_for_bank(p, b) : 0.0;
      const bool can_win = s.active && total_ways(p) < params_.max_ways_per_app;
      const int floor = p == static_cast<CoreId>(b) ? params_.min_ways : 0;
      const bool can_lose = bank.ways_of(p) - params_.intra_delta_ways >= floor ||
                            (floor == 0 && bank.ways_of(p) > 0);
      if (can_win && g > best) {
        best = g;
        winner = p;
      }
      if (can_lose && g < worst) {
        worst = g;
        loser = p;
      }
    }
    if (winner == kInvalidCore || loser == kInvalidCore || winner == loser) continue;
    if (best <= worst) continue;  // Alg. 2 line 4: only act on a strict gap.

    int give = params_.intra_delta_ways;
    if (loser == static_cast<CoreId>(b))
      give = std::min(give, bank.ways_of(loser) - params_.min_ways);
    give = std::min(give, bank.ways_of(loser));
    give = std::min(give, params_.max_ways_per_app - total_ways(winner));
    if (give <= 0) continue;

    bank.transfer(loser, winner, give);
    ++result.intra_transfers;
    if (rec_ != nullptr)
      rec_->record(obs::EventKind::kWayTransfer, obs_epoch_, winner, b, loser,
                   static_cast<std::uint64_t>(give), best, worst);
    // Alg. 2 line 6: report the new allocations back to both home tiles.
    count_msg(traffic, noc::MsgType::kIntraFeedback, 2);

    if (loser != static_cast<CoreId>(b) && bank.ways_of(loser) == 0) {
      retreat(loser, b, result, traffic);
    }
  }
}

void DeltaController::rebuild_cbt(CoreId core, TickResult& result,
                                  noc::TrafficStats* traffic) {
  std::vector<std::pair<BankId, int>> bank_ways;
  for (BankId b : acq_order_[static_cast<std::size_t>(core)]) {
    const int w = wp_[static_cast<std::size_t>(b)].ways_of(core);
    if (w > 0) bank_ways.emplace_back(b, w);
  }
  if (bank_ways.empty()) {
    // Defensive: a core always keeps its home mapping even with no ways
    // (its insertions then bypass; cannot happen under the home floor).
    bank_ways.emplace_back(static_cast<BankId>(core), 1);
  }

  Cbt& cbt = cbts_[static_cast<std::size_t>(core)];
  const Cbt prev = cbt;
  cbt.rebuild(bank_ways, rec_, obs_epoch_, core);
  ++stats_.cbt_rebuilds;

  // `result.remaps` accumulates across all rebuilds of a tick; account only
  // the chunks this rebuild moved.
  const std::size_t before = result.remaps.size();
  for (int chunk : cbt.changed_chunks(prev)) {
    result.remaps.push_back(
        RemapChunk{core, chunk, prev.bank_for_chunk(chunk)});
  }
  const std::size_t moved = result.remaps.size() - before;
  stats_.chunks_remapped += static_cast<std::uint64_t>(moved);
  if (rec_ != nullptr && moved > 0)
    rec_->record(obs::EventKind::kCbtRemap, obs_epoch_, core, /*bank=*/-1,
                 /*other=*/-1, static_cast<std::uint64_t>(moved));
  count_msg(traffic, noc::MsgType::kInvalidation, moved == 0 ? 0 : 1);
}

void DeltaController::retreat(CoreId core, BankId bank, TickResult& result,
                              noc::TrafficStats* traffic) {
  auto& acq = acq_order_[static_cast<std::size_t>(core)];
  auto it = std::find(acq.begin(), acq.end(), bank);
  if (it != acq.end()) acq.erase(it);
  ++result.retreats;
  if (rec_ != nullptr)
    rec_->record(obs::EventKind::kRetreat, obs_epoch_, core, bank);
  rebuild_cbt(core, result, traffic);
}

}  // namespace delta::core
