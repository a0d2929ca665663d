#include "authz/authz.hpp"

#include <ostream>

namespace mwsec::authz {

const char* decision_name(Decision d) {
  switch (d) {
    case Decision::kPermit: return "permit";
    case Decision::kDeny: return "deny";
    case Decision::kAbstain: return "abstain";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Verdict& v) {
  os << decision_name(v.decision) << " by '" << v.authority << "'";
  if (v.epoch != 0) os << " @" << v.epoch;
  if (!v.explanation.empty()) os << " (" << v.explanation << ")";
  return os;
}

std::string Authorizer::explain(const Request& request,
                                const Verdict& verdict) const {
  (void)request;
  if (!verdict.explanation.empty()) return verdict.explanation;
  return verdict.decision == Decision::kDeny ? "denied (no detail)"
                                             : std::string{};
}

keynote::Query fig5_query(const Request& request) {
  keynote::Query q;
  q.action_authorizers = {request.principal};
  q.env.set("app_domain", "WebCom");
  q.env.set("ObjectType", request.object_type);
  q.env.set("Permission", request.permission);
  q.env.set("Domain", request.domain);
  q.env.set("Role", request.role);
  for (const auto& [name, value] : request.attributes) {
    q.env.set(name, value);
  }
  return q;
}

std::string fig5_env_text(const Request& request) {
  std::string out = "{app_domain=WebCom, ObjectType=" + request.object_type +
                    ", Permission=" + request.permission +
                    ", Domain=" + request.domain + ", Role=" + request.role;
  for (const auto& [name, value] : request.attributes) {
    out += ", " + name + "=" + value;
  }
  out += "}";
  return out;
}

obs::SpanRecord decision_record(std::string span_name, std::string system,
                                const Request& request, const Verdict& verdict,
                                std::string reason) {
  obs::SpanRecord rec;
  rec.name = std::move(span_name);
  rec.status = decision_name(verdict.decision);
  rec.attrs = {
      {obs::kAttrSystem, std::move(system)},
      {obs::kAttrPrincipal,
       request.user.empty() ? request.principal : request.user},
      {obs::kAttrAction, request.object_type + ":" + request.permission},
      {obs::kAttrDecision, verdict.permitted() ? "permit" : "deny"},
  };
  if (!verdict.permitted()) {
    rec.attrs.emplace_back(obs::kAttrDeniedBy, verdict.authority);
    rec.attrs.emplace_back(obs::kAttrReason, reason.empty()
                                                 ? verdict.explanation
                                                 : std::move(reason));
  } else if (!reason.empty()) {
    rec.attrs.emplace_back(obs::kAttrReason, std::move(reason));
  }
  return rec;
}

}  // namespace mwsec::authz
