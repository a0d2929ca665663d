// The common authorisation core (Figures 1 and 10).
//
// The paper's central claim is one decision model mediating heterogeneous
// security technologies. Every decision surface in this repository — the
// Figure 10 stacked authoriser and each of its layers, the WebCom
// master/client scheduler, the KeyCOM administration service, and the
// native middleware mediators — answers the same question through the same
// interface: an `Authorizer` maps a `Request` (who, acting as what, doing
// what to what) to a `Verdict` (decision, deciding authority, store-version
// epoch). Decorators compose over that seam: `CachingAuthorizer` adds a
// sharded version-keyed decision cache in front of any backend, and
// `Stack` folds a pile of authorisers into one with a pluggable
// composition strategy.
//
// Obs spans and audit events both derive from a (Request, Verdict) pair
// via `decision_record`, so "who denied this and why" is attributed the
// same way no matter which surface produced the decision.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "keynote/assertion.hpp"
#include "keynote/query.hpp"
#include "obs/trace.hpp"

namespace mwsec::authz {

/// An authoriser may permit, deny, or abstain (it has no opinion — e.g.
/// the OS layer abstains on requests for objects it does not manage).
enum class Decision { kPermit, kDeny, kAbstain };

const char* decision_name(Decision d);

/// One mediation request, carrying everything any authoriser might need.
struct Request {
  std::string user;        ///< OS / middleware user name
  std::string principal;   ///< the user's key (for the TM layer)
  std::string object_type;
  std::string permission;
  std::string domain;      ///< RBAC domain context
  std::string role;        ///< RBAC role context
  /// Extra action-environment attributes beyond the fixed Figure 5
  /// vocabulary, e.g. the param_* bindings a parameterized role instance
  /// pins (translate::instance_param_attr). Sorted (name, value) pairs;
  /// they extend the KeyNote environment and the decision-cache key.
  std::vector<std::pair<std::string, std::string>> attributes;
  /// Credentials presented with the request (TM layer). A request carrying
  /// credentials is not a pure function of the fields above, so decision
  /// caches bypass it.
  std::vector<keynote::Assertion> credentials;
};

/// The outcome of one authorisation decision.
struct Verdict {
  Decision decision = Decision::kDeny;
  /// The deciding authority — e.g. "L2-keynote", "L1-CORBA", "stack".
  std::string authority;
  /// Why, when the producer had it cheaply at decision time. Usually empty
  /// on the hot path; `Authorizer::explain` recovers the full account.
  std::string explanation;
  /// Version of the backing policy store at decision time (0 when the
  /// backend is unversioned). Decision caches key on this.
  std::uint64_t epoch = 0;

  bool permitted() const { return decision == Decision::kPermit; }

  static Verdict permit(std::string authority, std::uint64_t epoch = 0) {
    return {Decision::kPermit, std::move(authority), {}, epoch};
  }
  static Verdict deny(std::string authority, std::uint64_t epoch = 0) {
    return {Decision::kDeny, std::move(authority), {}, epoch};
  }
  static Verdict abstain(std::string authority, std::uint64_t epoch = 0) {
    return {Decision::kAbstain, std::move(authority), {}, epoch};
  }

  /// A verdict compares equal to its decision, so call sites (and tests)
  /// that predate the refactor keep reading naturally.
  friend bool operator==(const Verdict& v, Decision d) {
    return v.decision == d;
  }
};

std::ostream& operator<<(std::ostream& os, const Verdict& v);

/// The one decision interface. Implementations must be safe to call from
/// multiple threads concurrently (decide is logically const).
class Authorizer {
 public:
  virtual ~Authorizer() = default;

  virtual std::string name() const = 0;

  virtual Verdict decide(const Request& request) const = 0;

  /// Human-readable account of why this authoriser reached `verdict` for
  /// `request` — the failing condition/constraint for a deny. Consulted
  /// only on the audit/trace path (never on the hot path), so an
  /// implementation may re-evaluate the request to explain it.
  virtual std::string explain(const Request& request,
                              const Verdict& verdict) const;

  /// Version of the backing policy store (0 = unversioned). A decision is
  /// a pure function of (request, epoch) for cacheable backends.
  virtual std::uint64_t epoch() const { return 0; }
};

/// The Figure 5 action-environment vocabulary shared by every KeyNote
/// surface: stack trust queries, scheduling queries, KeyCOM row checks.
/// Attributes are set unconditionally — a missing attribute evaluates as
/// the empty string, so setting "" is equivalent and keeps one encoding.
keynote::Query fig5_query(const Request& request);

/// The same environment rendered for humans — the "failing constraint" a
/// denied-request trace reports.
std::string fig5_env_text(const Request& request);

/// One decision record derived from (request, verdict): both the trace
/// span attributes and the audit event come from this, so attribution
/// (`decision` / `denied_by` / `reason`) is uniform across surfaces.
/// `reason` overrides `verdict.explanation` when non-empty.
obs::SpanRecord decision_record(std::string span_name, std::string system,
                                const Request& request, const Verdict& verdict,
                                std::string reason = {});

}  // namespace mwsec::authz
