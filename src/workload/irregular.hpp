// Irregular-access application family: gather/scatter, hash-join
// build/probe, and graph-traversal kernels.
//
// These are the workloads locality-aware allocators are weakest on: their
// reuse distances sit at the size of a multi-megabyte data structure, so
// the miss curve any monitor observes is *flat* across every allocatable
// capacity — no cliff for a farsighted allocator to chase, no slope for
// DELTA's windowed gain to climb.  Giving such an application ways is pure
// waste; taking its ways away costs nothing.  The family stresses exactly
// that judgement: an allocator that cannot recognise a flat curve bleeds
// capacity into these applications that the cache-sensitive co-runners
// needed (the same failure mode as thrashing streams, but with the
// pseudo-random address structure of real pointer-heavy codes, which also
// defeats stride-based filtering).
//
// Profiles flow through the ordinary AppProfile/TraceGen pipeline
// (RingKind::kGather / kHashJoin / kWalk, workload/profile.hpp) and are
// registered in the common name index, so mixes, delta_sim --apps, the
// fuzz generators and every scheme see them exactly like the Table III
// stand-ins.
#pragma once

#include <vector>

#include "workload/profile.hpp"

namespace delta::workload {

/// The irregular family in a stable order.  Resolvable by name through
/// spec_profile()/has_spec_profile like the Table III profiles.
const std::vector<AppProfile>& irregular_profiles();

}  // namespace delta::workload
