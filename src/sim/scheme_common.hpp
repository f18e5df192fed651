// Shared machinery of the schemes: the EpochPlan fill helpers
// (scheme.hpp), and for the centrally computed schemes (ideal-central,
// carma) applying a chip-wide placement to per-bank WP units and per-core
// CBTs, with the bulk invalidations the implied remaps require.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/placement.hpp"
#include "core/cbt.hpp"
#include "core/way_partition.hpp"

namespace delta::sim {

class Chip;

/// Equal-partition initial state: one WpUnit per bank fully owned by the
/// home core, one home-mapped CBT per core.  Clears and refills `wp`/`cbts`.
void init_central_state(const Chip& chip, std::vector<core::WpUnit>& wp,
                        std::vector<core::Cbt>& cbts);

/// Applies `placement` (rows follow `active_core`): re-owns every bank's
/// ways — home app first, then guests by core id, unassigned ways to the
/// home core — then rebuilds each active core's CBT (home bank first, then
/// by mesh distance) and bulk-invalidates the chunks that moved banks.
/// Follows DELTA's enforcement semantics: a CBT is only rebuilt when the
/// core's bank *set* changed; pure way-count drift does not remap addresses.
void apply_central_placement(Chip& chip, std::uint64_t epoch,
                             const std::vector<int>& active_core,
                             const alloc::Placement& placement,
                             std::vector<core::WpUnit>& wp,
                             std::vector<core::Cbt>& cbts);

/// Publishes `wp`/`cbts` (one per bank / core) as the chip's plan.
void publish_central_state(Chip& chip, const std::vector<core::WpUnit>& wp,
                           const std::vector<core::Cbt>& cbts);

}  // namespace delta::sim
