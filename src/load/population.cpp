#include "load/population.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "load/zipf.hpp"

namespace mwsec::load {

namespace {

constexpr const char* kRoleNames[] = {"Operator", "Manager",  "Auditor",
                                      "Clerk",    "Engineer", "Analyst"};
constexpr const char* kPermissions[] = {"read", "write", "approve", "execute"};

/// Mix the population seed with a principal index into an independent
/// per-principal stream seed (the SplitMix64 increment keeps streams from
/// correlating for adjacent indices).
std::uint64_t principal_seed(std::uint64_t seed, std::size_t i) {
  return seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1));
}

}  // namespace

Population::Population(PopulationOptions options) : options_(options) {
  assert(options_.principals > 0);
  assert(options_.domains > 0 && options_.roles_per_domain > 0);
  assert(options_.object_types > 0);
  assert(options_.entitlements_per_principal > 0);
  const std::size_t n_perms = std::size(kPermissions);
  for (std::size_t d = 0; d < options_.domains; ++d) {
    for (std::size_t r = 0; r < options_.roles_per_domain; ++r) {
      const std::string domain = domain_name(d);
      const std::string role = role_name(r);
      // Two rows per role: deterministic, collision-free across roles in
      // a domain, never the forbidden permission.
      rbac::PermissionGrant a{domain, role,
                              "T" + std::to_string((d + r) %
                                                   options_.object_types),
                              kPermissions[r % n_perms]};
      rbac::PermissionGrant b{domain, role,
                              "T" + std::to_string((d + 2 * r + 1) %
                                                   options_.object_types),
                              kPermissions[(r + 1) % n_perms]};
      grants_.grant(a).ok();
      grants_.grant(b).ok();
      auto& rows = by_role_[{domain, role}];
      rows.push_back(a);
      if (!(b == a)) rows.push_back(b);
    }
  }
}

std::string Population::user(std::size_t i) const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%07zu", i);
  return buf;
}

std::string Population::principal(std::size_t i) const {
  return "K" + user(i);
}

std::string Population::domain_name(std::size_t d) const {
  char buf[32];  // "Dept" and up to 20 digits
  std::snprintf(buf, sizeof buf, "Dept%02zu", d);
  return buf;
}

std::string Population::role_name(std::size_t r) const {
  return kRoleNames[r % std::size(kRoleNames)];
}

std::vector<rbac::RoleInstance> Population::entitlements(std::size_t i) const {
  SplitMix64 rng(principal_seed(options_.seed, i));
  std::vector<rbac::RoleInstance> out;
  const std::size_t want = options_.entitlements_per_principal;
  // Distinct (domain, role) pairs, not merely distinct instances: a
  // parameterless credential's conditions pin only Domain/Role, so it
  // would subsume a parameterized sibling instance of the same pair and
  // break the oracle's per-entitlement ground truth. Bounded retries:
  // the role space may be smaller than the request.
  for (std::size_t attempts = 0; out.size() < want && attempts < 4 * want + 8;
       ++attempts) {
    rbac::RoleInstance instance;
    instance.domain = domain_name(rng.next_below(options_.domains));
    instance.role = role_name(rng.next_below(options_.roles_per_domain));
    if (rng.chance(options_.parameterized_fraction)) {
      instance.params.emplace_back(
          "tier", "t" + std::to_string(rng.next_below(4)));
    }
    const bool pair_taken =
        std::any_of(out.begin(), out.end(), [&](const rbac::RoleInstance& e) {
          return e.domain == instance.domain && e.role == instance.role;
        });
    if (!pair_taken) out.push_back(std::move(instance));
  }
  return out;
}

void Population::register_assignments(std::size_t i,
                                      rbac::Policy& policy) const {
  const std::string u = user(i);
  for (const auto& e : entitlements(i)) {
    policy.assign(u, e.domain, e.role).ok();  // set-backed: idempotent
  }
}

const rbac::PermissionGrant& Population::granted_action(
    const rbac::RoleInstance& instance, std::size_t k) const {
  auto it = by_role_.find({instance.domain, instance.role});
  assert(it != by_role_.end() && !it->second.empty());
  return it->second[k % it->second.size()];
}

}  // namespace mwsec::load
