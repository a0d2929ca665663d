#include "authz/keynote_authorizer.hpp"

namespace mwsec::authz {

keynote::CompiledStore::StoreHandle KeyNoteAuthorizer::handle_for(
    const Request& request) const {
  if (store_ == nullptr) return fixed_;
  return store_->snapshot_with(request.credentials);
}

Verdict KeyNoteAuthorizer::decide(const Request& request) const {
  // The verdict's epoch is the version of the snapshot it was computed
  // from, never a separate read of the store's version: a mutation landing
  // between two reads would label a verdict with an epoch whose store it
  // was not computed from — the coherence the caching layer and the
  // concurrency stress tests depend on.
  const auto handle = handle_for(request);
  auto r = handle.snapshot->query(fig5_query(request));
  if (!r.ok()) {
    Verdict v = Verdict::deny(name_, handle.version);
    v.explanation = "query failed: " + r.error().message;
    return v;
  }
  return r->authorized() ? Verdict::permit(name_, handle.version)
                         : Verdict::deny(name_, handle.version);
}

std::string KeyNoteAuthorizer::explain(const Request& request,
                                       const Verdict& verdict) const {
  // Re-evaluate to recover the compliance value and any dropped
  // credentials; explain() runs on the trace/audit path only.
  auto r = handle_for(request).snapshot->query(fig5_query(request));
  if (!r.ok()) {
    return "query failed: " + r.error().message;
  }
  std::string out = "compliance '" + r->value_name + "' for principal '" +
                    request.principal + "' under " + fig5_env_text(request);
  if (!verdict.permitted() && !r->dropped_credentials.empty()) {
    out += "; dropped credentials: " + r->dropped_credentials.front();
  }
  return out;
}

}  // namespace mwsec::authz
