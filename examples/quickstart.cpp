// Quickstart: the paper's Salaries Database scenario end to end.
//
//  1. Build the Figure 1 RBAC policy.
//  2. Compile it to KeyNote (Figure 5 policy + Figure 6 credentials).
//  3. Bob delegates write access to a contractor (Figure 4 style).
//  4. Mediate requests through the full Figure 10 stacked authoriser
//     backed by a live CORBA ORB simulator.
#include <cstdio>

#include "authz/keynote_authorizer.hpp"
#include "authz/middleware_authorizer.hpp"
#include "authz/stack.hpp"
#include "middleware/corba/orb.hpp"
#include "rbac/fixtures.hpp"
#include "translate/directory.hpp"
#include "translate/rbac_to_keynote.hpp"

using namespace mwsec;

int main() {
  std::printf("== 1. The Figure 1 RBAC policy ==\n%s\n",
              rbac::salaries_policy().to_table().c_str());

  // A real PKI: every actor gets an RSA keypair.
  crypto::KeyRing ring(/*seed=*/2004);
  translate::KeyRingDirectory directory(ring);
  const auto& webcom = ring.identity("KWebCom");

  std::printf("== 2. Compile to KeyNote ==\n");
  auto compiled = translate::compile_policy_signed(rbac::salaries_policy(),
                                                   webcom, directory)
                      .take();
  std::printf("POLICY assertion (Figure 5 encoding):\n%s\n",
              compiled.policy.to_text().c_str());
  std::printf("...plus %zu signed membership credentials (Figure 6).\n\n",
              compiled.membership_credentials.size());

  // 3. Deploy the same policy on a CORBA ORB and stand up the stack.
  middleware::corba::Orb orb("unixhost", "orb1");
  rbac::Policy figure1 = rbac::salaries_policy();
  rbac::Policy orb_policy;  // rename the domains onto the ORB's domain
  for (const auto& g : figure1.grants()) {
    orb_policy.grant(orb.domain(), g.role, g.object_type, g.permission).ok();
  }
  for (const auto& a : figure1.assignments()) {
    orb_policy.assign(a.user, orb.domain(), a.role).ok();
  }
  orb.import_policy(orb_policy).ok();

  keynote::CompiledStore store;
  store.add_policy(compiled.policy).ok();
  for (const auto& cred : compiled.membership_credentials) {
    store.add_credential(cred).ok();
  }

  middleware::AuditLog audit;
  authz::Stack authorizer(authz::Composition::kFirstDecisive, &audit);
  authorizer.push(std::make_shared<authz::MiddlewareAuthorizer>(orb));
  authorizer.push(std::make_shared<authz::KeyNoteAuthorizer>(store));

  auto mediate = [&](const char* user, const char* domain, const char* role,
                     const char* permission) {
    authz::Request r;
    r.user = user;
    r.principal = directory.principal_of(user);
    r.object_type = "SalariesDB";
    r.permission = permission;
    r.domain = domain;
    r.role = role;
    bool ok = authorizer.permitted(r);
    std::printf("  %-7s as %s/%s requesting %-5s -> %s\n", user, domain, role,
                permission, ok ? "PERMIT" : "DENY");
    return ok;
  };

  std::printf("== 3. Mediation through the stacked authoriser ==\n");
  mediate("Alice", "Finance", "Clerk", "write");
  mediate("Alice", "Finance", "Clerk", "read");
  mediate("Bob", "Finance", "Manager", "read");
  mediate("Bob", "Finance", "Manager", "write");
  mediate("Claire", "Sales", "Manager", "read");
  mediate("Dave", "Sales", "Assistant", "read");
  mediate("Mallory", "Finance", "Manager", "read");

  // 4. Decentralised delegation: Bob signs a credential for a contractor
  //    who appears in no middleware store at all (Figure 4).
  std::printf("\n== 4. Bob delegates Finance/Manager write to Kate ==\n");
  const auto& bob = directory.identity_of("Bob");
  auto kate_cred =
      keynote::AssertionBuilder()
          .authorizer("\"" + bob.principal() + "\"")
          .licensees("\"" + directory.principal_of("Kate") + "\"")
          .comment("contractor access, signed by Bob alone")
          .conditions(
              "app_domain == \"WebCom\" && Domain==\"Finance\" && "
              "Role==\"Manager\" && Permission==\"write\"")
          .build_signed(bob)
          .take();
  store.add_credential(kate_cred).ok();

  authz::Request kate;
  kate.user = "Kate";
  kate.principal = directory.principal_of("Kate");
  kate.object_type = "SalariesDB";
  kate.permission = "write";
  kate.domain = "Finance";
  kate.role = "Manager";
  std::printf("  Kate write  -> %s (via Bob's signed credential)\n",
              authorizer.permitted(kate) ? "PERMIT" : "DENY");
  kate.permission = "read";
  std::printf("  Kate read   -> %s (Bob delegated write only)\n",
              authorizer.permitted(kate) ? "PERMIT" : "DENY");

  std::printf("\nAudit trail: %zu decisions recorded (%zu permits, %zu denies)\n",
              audit.size(), audit.allowed_count(), audit.denied_count());
  return 0;
}
