#include "keycom/service.hpp"

#include "authz/keynote_authorizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mwsec::keycom {

namespace {

struct KeycomMetrics {
  obs::Counter& requests;
  obs::Counter& bad_signatures;
  obs::Counter& rows_applied;
  obs::Counter& rows_rejected;
  obs::Histogram& apply_us;

  static KeycomMetrics& get() {
    auto& r = obs::Registry::global();
    static KeycomMetrics m{
        r.counter("keycom.requests"),      r.counter("keycom.bad_signatures"),
        r.counter("keycom.rows_applied"),  r.counter("keycom.rows_rejected"),
        r.histogram("keycom.apply_us"),
    };
    return m;
  }
};
void write_assignment(util::ByteWriter& w, const rbac::RoleAssignment& a) {
  w.str(a.domain);
  w.str(a.role);
  w.str(a.user);
}

mwsec::Result<rbac::RoleAssignment> read_assignment(util::ByteReader& r) {
  rbac::RoleAssignment a;
  auto d = r.str();
  if (!d.ok()) return d.error();
  a.domain = std::move(d).take();
  auto role = r.str();
  if (!role.ok()) return role.error();
  a.role = std::move(role).take();
  auto u = r.str();
  if (!u.ok()) return u.error();
  a.user = std::move(u).take();
  return a;
}
}  // namespace

std::string UpdateRequest::canonical_body() const {
  std::string out = "requester:" + requester + "\n";
  for (const auto& a : add_assignments) {
    out += "+ur:" + a.domain + "|" + a.role + "|" + a.user + "\n";
  }
  for (const auto& g : add_grants) {
    out += "+hp:" + g.domain + "|" + g.role + "|" + g.object_type + "|" +
           g.permission + "\n";
  }
  for (const auto& a : remove_assignments) {
    out += "-ur:" + a.domain + "|" + a.role + "|" + a.user + "\n";
  }
  out += "credentials:\n" + credentials;
  return out;
}

void UpdateRequest::sign(const crypto::Identity& identity) {
  requester = identity.principal();
  signature = identity.sign(canonical_body());
}

mwsec::Status UpdateRequest::verify() const {
  if (signature.empty()) {
    return Error::make("update request is unsigned", "keycom");
  }
  if (!crypto::verify_message(requester, canonical_body(), signature)) {
    return Error::make("update request signature invalid", "keycom");
  }
  return {};
}

util::Bytes UpdateRequest::encode() const {
  util::ByteWriter w;
  w.str(requester);
  w.u32(static_cast<std::uint32_t>(add_assignments.size()));
  for (const auto& a : add_assignments) write_assignment(w, a);
  w.u32(static_cast<std::uint32_t>(add_grants.size()));
  for (const auto& g : add_grants) {
    w.str(g.domain);
    w.str(g.role);
    w.str(g.object_type);
    w.str(g.permission);
  }
  w.u32(static_cast<std::uint32_t>(remove_assignments.size()));
  for (const auto& a : remove_assignments) write_assignment(w, a);
  w.str(credentials);
  w.str(signature);
  return w.take();
}

mwsec::Result<UpdateRequest> UpdateRequest::decode(
    const util::Bytes& payload) {
  util::ByteReader r(payload);
  UpdateRequest out;
  auto requester = r.str();
  if (!requester.ok()) return requester.error();
  out.requester = std::move(requester).take();

  auto n_assign = r.u32();
  if (!n_assign.ok()) return n_assign.error();
  for (std::uint32_t i = 0; i < *n_assign; ++i) {
    auto a = read_assignment(r);
    if (!a.ok()) return a.error();
    out.add_assignments.push_back(std::move(a).take());
  }
  auto n_grants = r.u32();
  if (!n_grants.ok()) return n_grants.error();
  for (std::uint32_t i = 0; i < *n_grants; ++i) {
    rbac::PermissionGrant g;
    for (std::string* field :
         {&g.domain, &g.role, &g.object_type, &g.permission}) {
      auto s = r.str();
      if (!s.ok()) return s.error();
      *field = std::move(s).take();
    }
    out.add_grants.push_back(std::move(g));
  }
  auto n_remove = r.u32();
  if (!n_remove.ok()) return n_remove.error();
  for (std::uint32_t i = 0; i < *n_remove; ++i) {
    auto a = read_assignment(r);
    if (!a.ok()) return a.error();
    out.remove_assignments.push_back(std::move(a).take());
  }
  auto creds = r.str();
  if (!creds.ok()) return creds.error();
  out.credentials = std::move(creds).take();
  auto sig = r.str();
  if (!sig.ok()) return sig.error();
  out.signature = std::move(sig).take();
  if (!r.exhausted()) {
    return Error::make("trailing bytes in update request", "wire");
  }
  return out;
}

bool Service::authorised(const authz::Authorizer& authorizer,
                         const std::string& requester,
                         const std::string& domain, const std::string& role,
                         const std::string& object_type,
                         const std::string& permission) {
  authz::Request request;
  request.principal = requester;
  request.object_type = object_type;
  request.permission = permission;
  request.domain = domain;
  request.role = role;
  return authorizer.decide(request).permitted();
}

mwsec::Result<UpdateReport> Service::apply(const UpdateRequest& request) {
  auto& metrics = KeycomMetrics::get();
  ++stats_.requests;
  metrics.requests.inc();
  obs::ScopedTimer timer(metrics.apply_us);
  auto span = obs::Tracer::global().root("keycom.apply");
  if (span.active()) {
    span.set_attr(obs::kAttrSystem, "KeyCOM/" + target_.name());
    span.set_attr(obs::kAttrPrincipal, request.requester);
    span.set_attr(obs::kAttrAction, "policy-update");
  }
  // Ambient context for the scope of the apply: a sync::Authority publish
  // triggered by this update (an admin pushing a revocation through
  // KeyCOM) roots its "sync.publish" span under this apply, so the whole
  // propagation tree hangs off the administrative action that caused it.
  obs::ScopedTraceContext ambient(span.context());
  if (auto s = request.verify(); !s.ok()) {
    ++stats_.bad_signatures;
    metrics.bad_signatures.inc();
    if (span.active()) {
      span.set_attr(obs::kAttrDecision, "deny");
      span.set_attr(obs::kAttrDeniedBy, "keycom-signature");
      span.set_attr(obs::kAttrReason, s.error().message);
      span.set_status("deny");
    }
    if (audit_ != nullptr) {
      audit_->record({"KeyCOM/" + target_.name(), request.requester,
                      "policy-update", false, s.error().message});
    }
    return s.error();
  }
  std::vector<keynote::Assertion> presented;
  if (!request.credentials.empty()) {
    auto bundle = keynote::Assertion::parse_bundle(request.credentials);
    if (!bundle.ok()) return bundle.error();
    presented = std::move(bundle).take();
  }
  // Verify and compile the presented bundle once; every row of this
  // request is then authorised against the same snapshot, through a
  // fixed-handle KeyNote authoriser — the same Verdict type every other
  // decision surface produces, labelled with the version the snapshot was
  // compiled from.
  authz::KeyNoteAuthorizer row_authz(store_.snapshot_with(presented),
                                     "keycom-delegation");

  UpdateReport report;
  rbac::Policy additions;
  for (const auto& a : request.add_assignments) {
    if (!authorised(row_authz, request.requester, a.domain, a.role, "", "")) {
      report.rejected.push_back("assignment " + a.domain + "/" + a.role +
                                " for " + a.user + ": requester lacks "
                                "delegated authority");
      continue;
    }
    additions.assign(a).ok();
  }
  for (const auto& g : request.add_grants) {
    if (!authorised(row_authz, request.requester, g.domain, g.role,
                    g.object_type, g.permission)) {
      report.rejected.push_back("grant " + g.domain + "/" + g.role + " " +
                                g.permission + " on " + g.object_type +
                                ": requester lacks delegated authority");
      continue;
    }
    additions.grant(g).ok();
  }

  if (!additions.empty()) {
    auto stats = target_.import_policy(additions);
    if (!stats.ok()) return stats.error();
    report.assignments_applied = stats->assignments_applied;
    report.grants_applied = stats->grants_applied;
    for (const auto& skipped : stats->skipped) {
      report.rejected.push_back("target store: " + skipped);
    }
  }

  // Revocation: withdrawing a membership requires the same authority as
  // granting it.
  std::vector<const rbac::RoleAssignment*> withdrawn;
  for (const auto& a : request.remove_assignments) {
    if (!authorised(row_authz, request.requester, a.domain, a.role, "", "")) {
      report.rejected.push_back("removal " + a.domain + "/" + a.role +
                                " for " + a.user + ": requester lacks "
                                "delegated authority");
      continue;
    }
    auto removed = target_.remove_assignment(a);
    if (removed.ok()) {
      ++report.assignments_removed;
      withdrawn.push_back(&a);
    } else {
      report.rejected.push_back("removal " + a.domain + "/" + a.role +
                                " for " + a.user + ": " +
                                removed.error().message);
    }
  }

  // Figures 7–8 end to end: applied writes propagate through the live
  // replication channel, not just into this service's native store.
  if (publisher_ != nullptr) {
    if (report.assignments_applied + report.grants_applied > 0) {
      // The presented chain proved the delegation; publishing it is what
      // makes the new authority visible to every subscribed store.
      // publish_credential is idempotent, so re-presented chains are
      // silent.
      for (const auto& cred : presented) {
        const auto before = publisher_->epoch();
        publisher_->publish_credential(cred).ok();
        if (publisher_->epoch() != before) ++stats_.credentials_published;
      }
    }
    for (const rbac::RoleAssignment* a : withdrawn) {
      auto principal = principals_.find(a->user);
      if (principal == principals_.end()) continue;
      if (publisher_->revoke_by_licensee(principal->second) != 0) {
        ++stats_.revocations_published;
      }
    }
  }

  stats_.rows_applied +=
      report.assignments_applied + report.grants_applied;
  stats_.rows_rejected += report.rejected.size();
  metrics.rows_applied.inc(report.assignments_applied +
                           report.grants_applied);
  metrics.rows_rejected.inc(report.rejected.size());
  if (span.active()) {
    span.set_attr(obs::kAttrDecision,
                  report.fully_applied() ? "permit" : "deny");
    span.set_attr("rows_applied",
                  std::to_string(report.assignments_applied +
                                 report.grants_applied));
    span.set_attr("rows_rejected", std::to_string(report.rejected.size()));
    if (!report.fully_applied()) {
      span.set_attr(obs::kAttrDeniedBy, row_authz.name());
      span.set_attr(obs::kAttrReason, report.rejected.front());
    }
    span.set_status(report.fully_applied() ? "permit" : "deny");
  }
  if (audit_ != nullptr) {
    audit_->record({"KeyCOM/" + target_.name(), request.requester,
                    "policy-update", report.fully_applied(),
                    std::to_string(report.assignments_applied +
                                   report.grants_applied) +
                        " rows applied, " +
                        std::to_string(report.rejected.size()) + " rejected"});
  }
  return report;
}

}  // namespace mwsec::keycom
