#include "keynote/query.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "keynote/compiled_store.hpp"
#include "keynote/eval.hpp"
#include "util/strings.hpp"

namespace mwsec::keynote {

namespace {

constexpr std::string_view kPolicyPrincipal = "POLICY";

/// Screen `credentials` for admission: POLICY assertions are never
/// credentials, and signatures must verify unless checking is disabled.
/// Admitted credentials are appended to `admitted`; the rest are reported
/// in `dropped`.
void admit_credentials(const std::vector<Assertion>& credentials,
                       const QueryOptions& options,
                       std::vector<const Assertion*>& admitted,
                       std::vector<std::string>& dropped) {
  admitted.reserve(admitted.size() + credentials.size());
  for (const auto& c : credentials) {
    if (c.is_policy()) {
      dropped.push_back("POLICY assertion offered as credential");
      continue;
    }
    if (options.verify_signatures) {
      if (auto v = c.verify(); !v.ok()) {
        dropped.push_back(v.error().message);
        continue;
      }
    }
    admitted.push_back(&c);
  }
}

mwsec::Status check_policies(const std::vector<Assertion>& policies) {
  for (const auto& p : policies) {
    if (!p.is_policy()) {
      return Error::make(
          "non-POLICY assertion supplied as policy (authorizer=" +
              p.authorizer() + ")",
          "query");
    }
  }
  return {};
}

}  // namespace

QueryContext::QueryContext(const Query& query)
    : query_(&query),
      values_joined_(query.values.joined()),
      authorizers_joined_(util::join(query.action_authorizers, ",")) {}

std::string_view QueryContext::reserved_or_env(std::string_view name) const {
  if (name == "_MIN_TRUST") return query_->values.min_name();
  if (name == "_MAX_TRUST") return query_->values.max_name();
  if (name == "_VALUES") return values_joined_;
  if (name == "_ACTION_AUTHORIZERS") return authorizers_joined_;
  return query_->env.get(name);
}

AttrLookup QueryContext::lookup(const Assertion& assertion) const {
  return [this, &assertion](std::string_view name) -> std::string_view {
    if (name == "_MIN_TRUST") return query_->values.min_name();
    if (name == "_MAX_TRUST") return query_->values.max_name();
    if (name == "_VALUES") return values_joined_;
    if (name == "_ACTION_AUTHORIZERS") return authorizers_joined_;
    if (const std::string* c = assertion.find_constant(name)) return *c;
    return query_->env.get(name);
  };
}

mwsec::Result<QueryResult> evaluate(const std::vector<Assertion>& policies,
                                    const std::vector<Assertion>& credentials,
                                    const Query& query,
                                    const QueryOptions& options) {
  if (auto s = check_policies(policies); !s.ok()) return s.error();

  QueryResult result;
  std::vector<const Assertion*> admitted;
  admit_credentials(credentials, options, admitted,
                    result.dropped_credentials);

  CompiledIndex index;
  index.reserve(policies.size() + admitted.size());
  for (const auto& p : policies) index.add(p);
  for (const Assertion* c : admitted) index.add(*c);
  index.finalize();

  QueryContext context(query);
  result.value_index = index.policy_value(context);
  result.value_name = query.values.name(result.value_index);
  return result;
}

mwsec::Result<QueryResult> evaluate_reference(
    const std::vector<Assertion>& policies,
    const std::vector<Assertion>& credentials, const Query& query,
    const QueryOptions& options) {
  if (auto s = check_policies(policies); !s.ok()) return s.error();

  QueryResult result;
  std::vector<const Assertion*> admitted;
  admit_credentials(credentials, options, admitted,
                    result.dropped_credentials);

  QueryContext context(query);

  // Assertion list with POLICY assertions included; per-assertion
  // conditions value is fixed for the whole fixpoint computation.
  struct Entry {
    const Assertion* assertion;
    std::size_t conditions_value;
  };
  std::map<std::string, std::vector<Entry>> by_authorizer;
  for (const auto& p : policies) {
    by_authorizer[std::string(kPolicyPrincipal)].push_back(
        {&p, eval_conditions(p.conditions(), query.values, context.lookup(p))});
  }
  for (const Assertion* c : admitted) {
    by_authorizer[c->authorizer()].push_back(
        {c,
         eval_conditions(c->conditions(), query.values, context.lookup(*c))});
  }

  // Principal values: requesters at _MAX_TRUST, everyone else _MIN_TRUST.
  std::map<std::string, std::size_t> value;
  const std::size_t vmin = query.values.min_index();
  const std::size_t vmax = query.values.max_index();
  std::set<std::string> requesters(query.action_authorizers.begin(),
                                   query.action_authorizers.end());

  auto principal_value = [&](const std::string& p) -> std::size_t {
    if (requesters.count(p)) return vmax;
    auto it = value.find(p);
    return it == value.end() ? vmin : it->second;
  };

  // Kleene iteration to the least fixpoint. Each pass can only raise
  // values; with V compliance values and N authorizers it terminates in
  // at most N*V passes.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [authorizer, entries] : by_authorizer) {
      if (requesters.count(authorizer)) continue;  // already maximal
      std::size_t best = vmin;
      for (const auto& entry : entries) {
        std::size_t lic = eval_licensees(entry.assertion->licensees(),
                                         query.values, principal_value);
        best = std::max(best, std::min(lic, entry.conditions_value));
        if (best == vmax) break;
      }
      auto it = value.find(authorizer);
      std::size_t current = it == value.end() ? vmin : it->second;
      if (best > current) {
        value[authorizer] = best;
        changed = true;
      }
    }
  }

  result.value_index = principal_value(std::string(kPolicyPrincipal));
  result.value_name = query.values.name(result.value_index);
  return result;
}

mwsec::Status Session::add_policy(const Assertion& assertion) {
  if (!assertion.is_policy()) {
    return Error::make("assertion is not a POLICY assertion", "query");
  }
  policies_.push_back(assertion);
  return {};
}

mwsec::Status Session::add_policy_text(std::string_view text) {
  auto bundle = Assertion::parse_bundle(text);
  if (!bundle.ok()) return bundle.error();
  for (auto& a : *bundle) {
    if (auto s = add_policy(a); !s.ok()) return s;
  }
  return {};
}

mwsec::Status Session::add_credential(const Assertion& assertion) {
  if (assertion.is_policy()) {
    return Error::make("POLICY assertion cannot be a credential", "query");
  }
  credentials_.push_back(assertion);
  return {};
}

mwsec::Status Session::add_credential_text(std::string_view text) {
  auto bundle = Assertion::parse_bundle(text);
  if (!bundle.ok()) return bundle.error();
  for (auto& a : *bundle) {
    if (auto s = add_credential(a); !s.ok()) return s;
  }
  return {};
}

void Session::add_action_attribute(std::string name, std::string value) {
  query_.env.set(std::move(name), std::move(value));
}

void Session::add_action_authorizer(std::string principal) {
  query_.action_authorizers.push_back(std::move(principal));
}

mwsec::Status Session::set_compliance_values(std::vector<std::string> ordered) {
  auto v = ComplianceValueSet::make(std::move(ordered));
  if (!v.ok()) return v.error();
  query_.values = std::move(v).take();
  return {};
}

mwsec::Result<QueryResult> Session::query(const QueryOptions& options) const {
  return evaluate(policies_, credentials_, query_, options);
}

void Session::clear_action() {
  query_.action_authorizers.clear();
  query_.env = ActionEnvironment();
}

}  // namespace mwsec::keynote
