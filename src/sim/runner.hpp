// High-level experiment drivers: run a Table IV mix under one scheme or
// under a set of schemes, on the 16- or 64-core machine.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/chip.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"
#include "workload/mixes.hpp"

namespace delta::sim {

/// Runs `mix` (its app list must match cfg.cores) under `kind`.  A non-null
/// `obs` collects the run's event trace / epoch timeline (a new observer
/// run named after the scheme is begun first).  A non-null `checker` is
/// attached to the chip and invoked at every epoch boundary.
/// A non-null `streams` is the calling sweep's shared stream set (see
/// run_sweep), handed to the Chip.
MixResult run_mix(const MachineConfig& cfg, const workload::Mix& mix, SchemeKind kind,
                  SchemeOptions opts = {}, obs::Observer* obs = nullptr,
                  EpochChecker* checker = nullptr,
                  workload::StreamSet* streams = nullptr);

/// Resolves a 16-core Table IV mix to the machine size (replicating 4x for
/// 64 cores per Sec. III-B).
workload::Mix mix_for_config(const MachineConfig& cfg, const std::string& mix_name);

// ---------------------------------------------------------------------------
// Parallel experiment sweeps.
// ---------------------------------------------------------------------------

/// One independent simulation of a sweep: everything Chip construction
/// needs, held by value so jobs share no mutable state.  Observers live
/// beside the jobs (one slot per job, see run_sweep); epoch checkers are
/// absent — checkered runs go through run_mix on one thread.
struct SweepJob {
  MachineConfig cfg;
  workload::Mix mix;
  SchemeKind kind = SchemeKind::kSnuca;
  SchemeOptions opts;
  friend bool operator==(const SweepJob&, const SweepJob&) = default;
};

/// Runs every job on its own Chip, fanned over `threads` worker threads
/// (0 == hardware concurrency, 1 == serial on the calling thread), and
/// returns results in job order.  Each result is written into its
/// pre-sized slot, and every simulation is seeded independently of
/// scheduling, so the returned vector is byte-identical for any thread
/// count — `threads` only changes the wall-clock.
///
/// `observers`, when non-empty, holds one slot per job (entries may be
/// null; any other size throws std::invalid_argument).  Each job's
/// trace/timeline lands in its own observer, never in a shared one (a sink
/// shared across jobs would interleave nondeterministically).  Merging
/// them in job order with obs::Observer::merge_from gives the exact trace a
/// serial observed execution would have produced.
///
/// Composition with the intra-run engine: a job whose cfg.intra_jobs is 0
/// (auto) gets the leftover thread budget, hw_threads / outer_fanout and
/// never more than hw_threads, instead of a full pool per job — `--jobs 4
/// --intra-jobs 0` on a 16-thread host gives each of 4 concurrent
/// simulations 4 epoch workers rather than 4x16 oversubscription.
/// Explicit intra_jobs values pass through untouched.  Either way results
/// are unchanged; determinism makes the split a pure scheduling decision.
///
/// Claim groups: jobs under one seed that replay one mix, at any
/// replication (a 16-tile mix and its 64-tile x4 copy), form a group.
/// Workers claim jobs group by group, in a stable order of each group's
/// first appearance, and heaviest first within a group (claim_order), so
/// the longest simulations start first and the last one to finish is a
/// short one.  Results and observers stay index-addressed, so the claim
/// order never shows in them.
///
/// Shared streams: before any job starts, the sweep lists every active
/// core of each group's jobs by its stream key (Chip::stream_keys) and
/// builds one workload::StreamSet per group, holding one shared stream per
/// key that two or more of the group's cores name and whose profile is
/// epoch-invariant.  Each chip reads those cores' blocks from its group's
/// set instead of drawing its own copy (workload/shared_stream.hpp).  A
/// stream never spans two groups, so its sharers are claimed together and
/// its chunks are freed while its group runs; a one-job sweep shares
/// nothing.  The sets live for this call only: every stream and chunk is
/// freed before run_sweep returns, so no later sweep finds a stream
/// already drawn.
std::vector<MixResult> run_sweep(const std::vector<SweepJob>& jobs,
                                 unsigned threads = 0,
                                 std::span<obs::Observer* const> observers = {});

/// The order in which run_sweep's workers claim `jobs`, as job indices.
/// Claim groups (see run_sweep) stay contiguous, in order of first
/// appearance.  Within a group, jobs go by estimated host cost, heaviest
/// first: cfg.cores x (warmup_epochs + measure_epochs) x the scheme's
/// per-epoch host cost at 16 tiles, measured once and fixed in a table
/// (LFOC heaviest, private lightest).  Equal costs keep job order.
std::vector<std::size_t> claim_order(const std::vector<SweepJob>& jobs);

/// Any scheme set (kPaperSchemeKinds for the paper's figures,
/// kAllSchemeKinds for the six-way shootout) over many mixes as one sweep:
/// each (mix, scheme) pair is one job.  result[m][k] is mix `m` under
/// kinds[k]; determinism guarantee as run_sweep.
std::vector<std::vector<MixResult>> run_schemes(const MachineConfig& cfg,
                                                const std::vector<workload::Mix>& mixes,
                                                std::span<const SchemeKind> kinds,
                                                unsigned threads = 0,
                                                SchemeOptions opts = {});

}  // namespace delta::sim
