// SPKI/SDSI as an alternative L2 trust-management layer for the Figure 10
// stack — the paper: "we originally selected KeyNote ...; we have since
// used the SDSI/SPKI system in a similar way". Plugging this layer in
// instead of (or alongside) authz::KeyNoteAuthorizer swaps the TM
// technology without touching the rest of the stack.
#pragma once

#include "authz/authz.hpp"
#include "spki/rbac_to_spki.hpp"

namespace mwsec::spki {

class SpkiLayer final : public authz::Authorizer {
 public:
  SpkiLayer(const CertStore& store, std::string admin_principal)
      : store_(store), admin_principal_(std::move(admin_principal)) {}

  std::string name() const override { return "L2-spki"; }

  authz::Verdict decide(const authz::Request& request) const override {
    return spki_check(store_, admin_principal_, request.principal,
                      request.object_type, request.permission)
               ? authz::Verdict::permit("L2-spki")
               : authz::Verdict::deny("L2-spki");
  }

  std::string explain(const authz::Request& request,
                      const authz::Verdict& verdict) const override {
    std::string tag = "(tag " + request.object_type + " " +
                      request.permission + ")";
    if (verdict.decision == authz::Decision::kPermit) {
      return "certificate chain from admin reaches '" + request.principal +
             "' with " + tag;
    }
    return "no certificate chain from admin to '" + request.principal +
           "' authorises " + tag;
  }

 private:
  const CertStore& store_;
  std::string admin_principal_;
};

}  // namespace mwsec::spki
