#include "stack/layers.hpp"

namespace mwsec::stack {

using authz::Decision;
using authz::Request;
using authz::Verdict;

Verdict OsLayer::decide(const Request& request) const {
  if (!os_.account_exists(request.user)) return Verdict::deny("L0-os");
  if (os_.check(request.user, request.object_type, request.permission)) {
    return Verdict::permit("L0-os");
  }
  // The account exists but holds no grant: the OS may simply not manage
  // this object (middleware-level resources usually are not OS files).
  // Abstain unless the OS has *some* opinion on the object — modelled as:
  // no ACL entry at all for it from anyone means "not an OS object".
  // A conservative approximation: abstain always on a missing grant,
  // deny only for unknown accounts. Deployments wanting strict OS
  // mediation grant explicitly.
  return Verdict::abstain("L0-os");
}

std::string OsLayer::explain(const Request& request,
                             const Verdict& verdict) const {
  switch (verdict.decision) {
    case Decision::kDeny:
      return "no OS account '" + request.user + "'";
    case Decision::kPermit:
      return "ACL grants " + request.user + " " + request.object_type + ":" +
             request.permission;
    case Decision::kAbstain:
      return "no ACL entry for " + request.object_type + " (not an OS object)";
  }
  return {};
}

}  // namespace mwsec::stack
