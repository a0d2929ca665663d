#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "load/zipf.hpp"

namespace perfbench {

namespace {

using mwsec::load::SplitMix64;
using mwsec::load::ZipfGenerator;

/// The population and its popularity order are part of a workload's
/// definition, like its size; the run seed draws the state and traffic
/// over them. Every seed therefore loads the same role instances and the
/// same hot principals, and seeds differ in which ops arrive in which
/// order.
constexpr std::uint64_t kPopulationSeed = 42;

// Calibration: ops_per_second is the traffic rate at the commit that
// defined the benchmark (4-core virtual machine, RelWithDebInfo), so a run
// measures for about --seconds there.
const std::vector<WorkloadSpec> kWorkloads = {
    // Reads only, over a bulk-loaded store of ~12k credentials and a
    // population of 24k principals; writes come from the probe phase.
    {"direct-read", SurfaceKind::kDirect, 24'000, 3, 1.0 / 6, 0, false, 0.03,
     0, 8, 300'000, 200'000, 200, 20},
    // ~2k live credentials over a 1.4k-principal pool, half active; one op
    // in twelve toggles an instance. Reads outnumber writes enough that the
    // cold decides after each epoch stay a few percent of all decides, so
    // decide_p99 falls inside their cost mode, not in its sparse tail.
    {"direct-churn", SurfaceKind::kDirect, 1'400, 3, 0.5, 12, false, 0.03,
     1'000, 12, 300, 1'700, 0, 0},
    // The same pool replicated to two replicas, at a slightly lower write
    // share; its storms are smaller and a little more frequent.
    {"replica-fanout", SurfaceKind::kFanout, 1'400, 3, 0.5, 14, false, 0.03,
     700, 10, 300, 800, 0, 0},
    // Two attached clients, one execution identity each.
    {"webcom-schedule", SurfaceKind::kWebcom, 2, 1, 1.0, 50, true, 0.03, 500,
     2, 3'000, 20'000, 0, 0},
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, const mwsec::load::Population& pop,
            std::uint64_t seed, Plan& plan)
      : spec_(spec), plan_(plan), rng_(seed ^ 0x70e7'bec4'0000'0001ull),
        zipf_(spec.principals, 1.0, seed ^ 0x21bf'0000'0000'0002ull) {
    offset_.assign(spec.principals + 1, 0);
    for (std::size_t i = 0; i < spec.principals; ++i) {
      offset_[i + 1] = offset_[i] + pop.entitlements(i).size();
    }
    active_.assign(offset_.back(), 0);
    for (std::size_t i = 0; i < spec.principals; ++i) {
      for (std::size_t e = 0; e < entitlements(i); ++e) {
        if (rng_.chance(spec.active_share)) {
          set_active(i, e, true);
          plan.initial.emplace_back(static_cast<std::uint32_t>(i),
                                    static_cast<std::uint8_t>(e));
        }
      }
    }
    // Zipf ranks map to principals through a fixed shuffle, so the hot
    // principals are spread over the population rather than its prefix
    // and are the same principals for every seed.
    rank_to_principal_.resize(spec.principals);
    std::iota(rank_to_principal_.begin(), rank_to_principal_.end(), 0u);
    SplitMix64 shuffle(kPopulationSeed);
    for (std::size_t i = rank_to_principal_.size(); i > 1; --i) {
      std::swap(rank_to_principal_[i - 1],
                rank_to_principal_[shuffle.next_below(i)]);
    }
  }

  /// The next traffic op. Warm-up and traffic are one stream, so storms
  /// keep their op indices across the boundary.
  Op next() {
    // Storms and writes fall mid-interval, so a phase boundary (a round
    // op count) never separates a write from its re-grant.
    const std::size_t k = index_++;
    if (spec_.storm_every != 0 &&
        k % spec_.storm_every == spec_.storm_every / 2) {
      storm_due_ = true;
    }
    if (!forced_.empty()) {
      Op op = forced_.front();
      forced_.pop_front();
      set_active(op.principal, op.entitlement, op.kind == OpKind::kGrant);
      return op;
    }
    if (storm_due_) {
      storm_due_ = false;
      return storm(/*regrant=*/true);
    }
    if (spec_.write_every != 0 &&
        k % spec_.write_every == spec_.write_every / 2) {
      return spec_.paired_writes ? paired_write() : toggle();
    }
    return decide();
  }

  /// Grant/revoke pairs on inactive instances, with a storm (no
  /// re-grants) after every probe_pairs / probe_storms pairs.
  void probe_phase() {
    const std::size_t every =
        spec_.probe_storms == 0 ? 0 : spec_.probe_pairs / spec_.probe_storms;
    for (std::size_t p = 0; p < spec_.probe_pairs; ++p) {
      auto [i, e] = random_instance(/*want_active=*/false);
      plan_.probes.push_back(write_op(OpKind::kGrant, i, e));
      plan_.probes.push_back(write_op(OpKind::kRevoke, i, e));
      if (every != 0 && (p + 1) % every == 0) {
        plan_.probes.push_back(storm(/*regrant=*/false));
      }
    }
  }

 private:
  std::size_t entitlements(std::size_t i) const {
    return offset_[i + 1] - offset_[i];
  }
  bool active(std::size_t i, std::size_t e) const {
    return active_[offset_[i] + e] != 0;
  }
  void set_active(std::size_t i, std::size_t e, bool on) {
    active_[offset_[i] + e] = on ? 1 : 0;
  }
  bool any_active(std::size_t i) const {
    for (std::size_t e = 0; e < entitlements(i); ++e) {
      if (active(i, e)) return true;
    }
    return false;
  }

  static Op make_write(OpKind kind, std::size_t i, std::size_t e) {
    Op op;
    op.kind = kind;
    op.principal = static_cast<std::uint32_t>(i);
    op.entitlement = static_cast<std::uint8_t>(e);
    return op;
  }

  /// A write emitted now: the instance state follows it immediately.
  Op write_op(OpKind kind, std::size_t i, std::size_t e) {
    set_active(i, e, kind == OpKind::kGrant);
    return make_write(kind, i, e);
  }

  Op decide() {
    Op op;
    const std::size_t i = rank_to_principal_[zipf_.next()];
    op.principal = static_cast<std::uint32_t>(i);
    op.entitlement =
        static_cast<std::uint8_t>(rng_.next_below(entitlements(i)));
    op.action = static_cast<std::uint8_t>(rng_.next_below(2));
    op.forbidden = rng_.chance(spec_.forbidden_share);
    return op;
  }

  Op toggle() {
    const std::size_t i = rng_.next_below(spec_.principals);
    const std::size_t e = rng_.next_below(entitlements(i));
    return write_op(active(i, e) ? OpKind::kRevoke : OpKind::kGrant, i, e);
  }

  Op paired_write() {
    auto [i, e] = random_instance(/*want_active=*/true);
    forced_.push_back(make_write(OpKind::kGrant, i, e));
    return write_op(OpKind::kRevoke, i, e);
  }

  /// A uniformly drawn instance in the wanted state. The workloads keep
  /// both states plentiful, so rejection sampling ends quickly.
  std::pair<std::size_t, std::size_t> random_instance(bool want_active) {
    for (;;) {
      const std::size_t i = rng_.next_below(spec_.principals);
      const std::size_t e = rng_.next_below(entitlements(i));
      if (active(i, e) == want_active) return {i, e};
    }
  }

  /// Revoke up to storm_victims distinct principals holding at least one
  /// active instance; with `regrant`, their instances are re-granted by
  /// the ops that immediately follow.
  Op storm(bool regrant) {
    Op op;
    op.kind = OpKind::kStorm;
    op.victims_begin = static_cast<std::uint32_t>(plan_.victims.size());
    std::vector<std::uint32_t> chosen;
    const std::size_t want = std::min(spec_.storm_victims, spec_.principals);
    for (std::size_t attempts = 0;
         chosen.size() < want && attempts < 64 * spec_.principals;
         ++attempts) {
      const auto v = static_cast<std::uint32_t>(
          rng_.next_below(spec_.principals));
      if (!any_active(v) ||
          std::find(chosen.begin(), chosen.end(), v) != chosen.end()) {
        continue;
      }
      chosen.push_back(v);
    }
    for (std::uint32_t v : chosen) {
      plan_.victims.push_back(v);
      for (std::size_t e = 0; e < entitlements(v); ++e) {
        if (!active(v, e)) continue;
        set_active(v, e, false);
        if (regrant) forced_.push_back(make_write(OpKind::kGrant, v, e));
      }
    }
    op.victims_count = static_cast<std::uint32_t>(chosen.size());
    return op;
  }

  const WorkloadSpec& spec_;
  Plan& plan_;
  SplitMix64 rng_;
  ZipfGenerator zipf_;
  std::vector<std::size_t> offset_;
  std::vector<std::uint8_t> active_;  ///< state after every op emitted so far
  std::vector<std::uint32_t> rank_to_principal_;
  /// Ops that must come next, in order; their state changes apply when
  /// they are emitted.
  std::deque<Op> forced_;
  std::size_t index_ = 0;
  bool storm_due_ = false;
};

std::uint64_t digest_ops(std::uint64_t h, const std::vector<Op>& ops,
                         const std::vector<std::uint32_t>& victims) {
  for (const Op& op : ops) {
    h = fnv1a(h, static_cast<std::uint64_t>(op.kind) |
                     (std::uint64_t{op.forbidden} << 8) |
                     (std::uint64_t{op.entitlement} << 16) |
                     (std::uint64_t{op.action} << 24) |
                     (std::uint64_t{op.principal} << 32));
    for (std::uint32_t k = 0; k < op.victims_count; ++k) {
      h = fnv1a(h, victims[op.victims_begin + k]);
    }
  }
  return h;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

mwsec::load::PopulationOptions population_options(const WorkloadSpec& spec) {
  mwsec::load::PopulationOptions o;
  o.principals = spec.principals;
  o.entitlements_per_principal = spec.entitlements;
  o.seed = kPopulationSeed;
  return o;
}

Plan make_plan(const WorkloadSpec& spec,
               const mwsec::load::Population& population, std::uint64_t seed,
               double seconds) {
  Plan plan;
  Generator gen(spec, population, seed, plan);
  plan.warmup.reserve(spec.warmup_ops);
  for (std::size_t k = 0; k < spec.warmup_ops; ++k) {
    plan.warmup.push_back(gen.next());
  }
  const auto traffic = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds * spec.ops_per_second)));
  plan.traffic.reserve(traffic);
  for (std::size_t k = 0; k < traffic; ++k) plan.traffic.push_back(gen.next());
  gen.probe_phase();
  std::uint64_t h = kFnvOffset;
  for (const auto* phase : {&plan.warmup, &plan.traffic, &plan.probes}) {
    h = digest_ops(h, *phase, plan.victims);
  }
  for (const auto& [i, e] : plan.initial) h = fnv1a(h, (i << 8) | e);
  plan.digest = h;
  return plan;
}

}  // namespace perfbench
