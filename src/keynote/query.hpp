// The KeyNote query engine (RFC 2704 query semantics).
//
// Given a set of unsigned POLICY assertions (the local trust root), a set
// of signed credentials, the requesting principals (action authorisers)
// and an action environment, compute the compliance value of the request:
// the greatest value `v` such that authority flows from POLICY to the
// requesters at level `v` through the delegation graph.
//
// The computation is a Kleene fixpoint: every principal starts at
// _MIN_TRUST (requesters start at _MAX_TRUST) and assertion values
//   value(A) = min(conditions(A), licensees(A))
// are re-evaluated until no principal's value changes. Because licensee
// evaluation is monotone in the principal values, this converges and is
// insensitive to delegation cycles.
#pragma once

#include <string>
#include <vector>

#include "keynote/assertion.hpp"
#include "keynote/eval.hpp"
#include "keynote/values.hpp"
#include "util/result.hpp"

namespace mwsec::keynote {

struct Query {
  /// Principals that (cryptographically or by session authentication)
  /// requested the action.
  std::vector<std::string> action_authorizers;
  ActionEnvironment env;
  ComplianceValueSet values;  // default {false, true}
};

struct QueryOptions {
  /// Verify credential signatures and drop (ignore) credentials that fail.
  bool verify_signatures = true;
};

struct QueryResult {
  std::size_t value_index = 0;
  std::string value_name;
  /// Why each ignored credential was dropped (bad signature, unsigned...).
  std::vector<std::string> dropped_credentials;

  /// Convenience for the default {false,true} value set.
  bool authorized() const { return value_index > 0; }
};

/// Per-query evaluation context: precomputes the reserved attributes
/// (_VALUES, _ACTION_AUTHORIZERS) so attribute lookups can return views
/// into stable storage.
class QueryContext {
 public:
  explicit QueryContext(const Query& query);

  const Query& query() const { return *query_; }

  /// Attribute lookup chain for one assertion: reserved attributes, then
  /// the assertion's local constants, then the action environment. The
  /// returned views point into the assertion, the query, and this context
  /// — keep all three alive while evaluating.
  AttrLookup lookup(const Assertion& assertion) const;

  /// Value of an attribute *outside* any assertion's local constants: the
  /// four RFC 2704 reserved attributes, else the action environment
  /// (unset reads as ""). This is the resolution used to fill the compiled
  /// engine's per-query attribute slot vector — local constants never
  /// reach a slot because the compiler folds them.
  std::string_view reserved_or_env(std::string_view name) const;

 private:
  const Query* query_;
  std::string values_joined_;
  std::string authorizers_joined_;
};

/// Evaluate a query. `policies` must contain only POLICY assertions;
/// non-policy assertions among them are an error (they would bypass
/// signature checking). Internally compiles the assertion set and runs
/// the worklist fixpoint (see compiled_store.hpp); for a store queried
/// repeatedly, CompiledStore amortises that compilation too.
mwsec::Result<QueryResult> evaluate(const std::vector<Assertion>& policies,
                                    const std::vector<Assertion>& credentials,
                                    const Query& query,
                                    const QueryOptions& options = {});

/// The original interpreting evaluator: string-keyed maps and a full
/// Kleene sweep, exactly as RFC 2704 describes the semantics. Kept as the
/// executable specification the compiled engine is differentially tested
/// against; not used on any hot path.
mwsec::Result<QueryResult> evaluate_reference(
    const std::vector<Assertion>& policies,
    const std::vector<Assertion>& credentials, const Query& query,
    const QueryOptions& options = {});

/// RFC 2704 §6-style session facade: the "KeyNote API" the paper's
/// applications call. Accumulates policies, credentials and action
/// attributes, then answers queries.
class Session {
 public:
  mwsec::Status add_policy(const Assertion& assertion);
  mwsec::Status add_policy_text(std::string_view text);
  mwsec::Status add_credential(const Assertion& assertion);
  mwsec::Status add_credential_text(std::string_view text);

  void add_action_attribute(std::string name, std::string value);
  void add_action_authorizer(std::string principal);
  mwsec::Status set_compliance_values(std::vector<std::string> ordered);

  /// Evaluate with the accumulated state.
  mwsec::Result<QueryResult> query(const QueryOptions& options = {}) const;

  /// Reset per-query state (authorisers + attributes), keeping assertions.
  void clear_action();

  const std::vector<Assertion>& policies() const { return policies_; }
  const std::vector<Assertion>& credentials() const { return credentials_; }

 private:
  std::vector<Assertion> policies_;
  std::vector<Assertion> credentials_;
  Query query_;
};

}  // namespace mwsec::keynote
