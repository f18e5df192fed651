// The 15 multi-programmed workload mixes of Table IV.
//
// Transcription note: the paper's Table IV lists w2 without xalancbmk or
// soplex, yet Sec. IV-A and Fig. 7/10 analyse exactly those two applications
// *inside w2*.  We follow the text (the figures are the reproduction
// target): w2's "ca" and "sp" entries are replaced by "xa" and "so".  Typos
// "delII" (w4) and "calulix" (w11) are resolved to dealII and calculix.
#pragma once

#include <string>
#include <vector>

#include "workload/profile.hpp"

namespace delta::workload {

struct Mix {
  std::string name;         ///< "w1" .. "w15".
  std::string composition;  ///< Table IV composition label, e.g. "T+L".
  std::vector<std::string> apps;  ///< 16 short codes, one per core.
  friend bool operator==(const Mix&, const Mix&) = default;
};

/// All 15 mixes, each with exactly 16 application instances.
const std::vector<Mix>& table4_mixes();

/// Irregular-access mixes ("wi1".."wi3"): the flat-miss-curve kernel family
/// (workload/irregular.hpp) alone and combined with Table III applications.
/// Same 16-apps shape as the Table IV mixes, so every harness that takes a
/// mix name runs them unchanged.
const std::vector<Mix>& irregular_mixes();

/// Lookup by name ("w2", "wi1"); resolves Table IV and irregular mixes;
/// throws std::out_of_range on unknown names.
const Mix& table4_mix(const std::string& name);

/// 64-core variant: the 16-core mix replicated four times (Sec. III-B),
/// with instances laid out round-robin so replicas land on distinct tiles.
Mix replicate4(const Mix& mix);

}  // namespace delta::workload
