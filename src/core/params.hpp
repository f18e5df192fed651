// DELTA tuning parameters (paper Table II, bottom row).
#pragma once

#include <cstdint>

namespace delta::core {

struct DeltaParams {
  // Reconfiguration intervals, expressed in simulator epochs where one
  // epoch == i_intra == 0.1 ms.  i_inter == 1 ms == 10 epochs.
  int inter_interval_epochs = 10;
  int intra_interval_epochs = 1;

  // Allocation-policy knobs (way unit = 32 KB: one way of a 512 KB bank).
  double gain_threshold = 0.5;  ///< Min rawGain (avoidable misses per kilo-access).
  int min_ways = 4;             ///< 128 KB reserved home floor / challenge precondition.
  int inter_delta_ways = 4;     ///< Ways carved out by a successful challenge.
  int intra_delta_ways = 1;     ///< Ways moved per intra-bank step.
  int gain_ways = 4;            ///< Expansion window for Eq. 1's a_gainWays.
  int pain_ways = 4;            ///< Contraction window for Eq. 2's a_painWays.

  // Allocation caps (Sec. III-A): 128 KB .. 6 MB per app on 16 cores,
  // 128 KB .. 24 MB on 64 cores, in 32 KB increments.
  int max_ways_per_app = 192;

  // Enforcement ablation: index the CBT with the bit-reversed
  // bank-selection byte (the paper's design) or with the raw byte.
  bool reverse_chunk_bits = true;
  friend bool operator==(const DeltaParams&, const DeltaParams&) = default;
};

}  // namespace delta::core
