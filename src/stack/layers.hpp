// Stacked authorisation (paper §5, Figure 10).
//
// The layer model lives in the authz core (src/authz): a layer is an
// `authz::Authorizer`, the tri-state fold and fail-closed rule are
// `authz::Stack`, the L1 middleware adapter is
// `authz::MiddlewareAuthorizer` and the L2 KeyNote layer is
// `authz::KeyNoteAuthorizer`. This header adds the two layers with
// stack-specific backends: the OS layer (accounts + ACLs) and the
// application-predicate hook.
#pragma once

#include <functional>
#include <string>

#include "authz/authz.hpp"
#include "stack/os.hpp"

namespace mwsec::stack {

/// L0: OS accounts + ACLs. Denies requests from non-existent accounts;
/// abstains on objects it has no ACL entries for.
class OsLayer final : public authz::Authorizer {
 public:
  explicit OsLayer(const OsSecurity& os) : os_(os) {}
  std::string name() const override { return "L0-os"; }
  authz::Verdict decide(const authz::Request& request) const override;
  std::string explain(const authz::Request& request,
                      const authz::Verdict& verdict) const override;

 private:
  const OsSecurity& os_;
};

/// L3: application hook (condensed-graph-level policy); the paper notes
/// this layer exists but does not elaborate — provided as a predicate.
class ApplicationLayer final : public authz::Authorizer {
 public:
  using Predicate = std::function<authz::Decision(const authz::Request&)>;
  explicit ApplicationLayer(Predicate predicate)
      : predicate_(std::move(predicate)) {}
  std::string name() const override { return "L3-application"; }
  authz::Verdict decide(const authz::Request& request) const override {
    switch (predicate_(request)) {
      case authz::Decision::kPermit: return authz::Verdict::permit(name());
      case authz::Decision::kDeny: return authz::Verdict::deny(name());
      case authz::Decision::kAbstain: break;
    }
    return authz::Verdict::abstain(name());
  }

 private:
  Predicate predicate_;
};

}  // namespace mwsec::stack
