// The workload table and the fixed-work op plan.
//
// A run's work is a pure function of (workload, seed, seconds): the plan
// lists every op before any is timed, storms fire at op indices, and a
// digest over the ops lets two runs prove they did the same work. The
// amount of work is `seconds × ops_per_second`, a per-workload constant
// calibrated so that a run measures for about `seconds` on a 4-core
// virtual machine at the commit that defined the benchmark; a faster
// commit does the same work in less time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "load/population.hpp"

namespace perfbench {

enum class SurfaceKind { kDirect, kFanout, kWebcom };

struct WorkloadSpec {
  const char* name;
  SurfaceKind surface;
  std::size_t principals;
  std::size_t entitlements;  ///< per principal
  double active_share;       ///< instances active before traffic starts
  /// Every write_every-th op is a write (0 = none), so every seed does
  /// the same number of writes.
  std::size_t write_every;
  /// A write revokes an active instance and the next op re-grants it
  /// (webcom-schedule); otherwise a write toggles a random instance.
  bool paired_writes;
  double forbidden_share;  ///< decides asking for the never-granted permission
  std::size_t storm_every;   ///< a storm is due at every storm_every-th op
  std::size_t storm_victims;
  std::size_t warmup_ops;    ///< run during set-up, on the same traffic
  double ops_per_second;     ///< traffic ops per second of --seconds
  /// Write-probe phase after the traffic, for a workload whose traffic
  /// has no writes: grant/revoke pairs on inactive instances, with a
  /// storm after every probe_pairs / probe_storms pairs.
  std::size_t probe_pairs;
  std::size_t probe_storms;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// The population is fixed per workload; seeds vary the traffic.
mwsec::load::PopulationOptions population_options(const WorkloadSpec& spec);

enum class OpKind : std::uint8_t { kDecide, kGrant, kRevoke, kStorm };

struct Op {
  OpKind kind = OpKind::kDecide;
  bool forbidden = false;
  std::uint8_t entitlement = 0;
  std::uint8_t action = 0;
  std::uint32_t principal = 0;
  /// A storm's victims are Plan::victims[begin, begin + count).
  std::uint32_t victims_begin = 0;
  std::uint32_t victims_count = 0;
};

struct Plan {
  /// (principal, entitlement) instances active before traffic starts.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> initial;
  std::vector<Op> warmup;
  std::vector<Op> traffic;
  std::vector<Op> probes;  ///< the write-probe phase (may be empty)
  std::vector<std::uint32_t> victims;
  std::uint64_t digest = 0;  ///< FNV-1a over every op of every phase
};

Plan make_plan(const WorkloadSpec& spec,
               const mwsec::load::Population& population, std::uint64_t seed,
               double seconds);

/// FNV-1a, the digest used for ops and verdicts.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
