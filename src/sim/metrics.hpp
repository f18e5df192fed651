// Result records and the paper's metrics (Sec. III-D): per-app IPC,
// workload geometric-mean IPC, ANTT and STP (Eyerman & Eeckhout).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/traffic.hpp"

namespace delta::sim {

struct AppResult {
  std::string app;
  int core = 0;
  double ipc = 0.0;
  double cpi = 0.0;
  double mpki = 0.0;          ///< LLC misses per kilo-instruction.
  double miss_rate = 0.0;     ///< LLC miss ratio.
  double avg_latency = 0.0;   ///< Mean LLC-access latency (cycles).
  double avg_hops = 0.0;      ///< Mean one-way hops to the LLC bank used.
  double avg_ways = 0.0;      ///< Mean allocated ways (epoch-sampled).
  std::uint64_t instructions = 0;
  std::uint64_t llc_accesses = 0;
  std::uint64_t llc_misses = 0;
};

/// Control-plane message totals split by purpose (Sec. IV-E2), so per-scheme
/// overhead reports can attribute traffic instead of quoting one opaque sum.
struct ControlBreakdown {
  std::uint64_t challenge = 0;     ///< Challenges + responses.
  std::uint64_t feedback = 0;      ///< Intra-bank allocation reports.
  std::uint64_t invalidation = 0;  ///< Bulk-invalidation sweep commands.
  std::uint64_t handover = 0;      ///< Idle-bank handover notifications.
  std::uint64_t central = 0;       ///< Centralized collect + broadcast.
  std::uint64_t market = 0;        ///< CARMA auction bids + grants.

  std::uint64_t total() const {
    return challenge + feedback + invalidation + handover + central + market;
  }
};

/// Extracts the control-plane breakdown from per-type traffic counters.
ControlBreakdown control_breakdown(const noc::TrafficStats& t);

struct MixResult {
  std::string mix;
  std::string scheme;
  std::vector<AppResult> apps;
  double geomean_ipc = 0.0;
  noc::TrafficStats traffic;
  ControlBreakdown control;
  std::uint64_t invalidated_lines = 0;
  std::uint64_t measured_epochs = 0;
};

/// Workload performance = geometric mean of app IPCs (Sec. III-D).
double workload_geomean_ipc(const MixResult& r);

/// ANTT = (1/N) sum CPI_i / CPI_i,private — lower is fairer.
double antt(const MixResult& r, const MixResult& private_ref);

/// STP = sum CPI_i,private / CPI_i — higher is more throughput.
double stp(const MixResult& r, const MixResult& private_ref);

/// Per-workload speedup of `r` over `baseline` (ratio of geomean IPCs).
double speedup(const MixResult& r, const MixResult& baseline);

}  // namespace delta::sim
