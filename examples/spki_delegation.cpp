// SPKI/SDSI in place of KeyNote (paper footnote 1): the same Salaries
// scenario carried by SDSI name certs (roles as local names) and
// tag-bearing auth certs, including Figure 7-style re-delegation and the
// swap-in of the SPKI layer into the Figure 10 stack.
#include <cstdio>

#include "authz/stack.hpp"
#include "rbac/fixtures.hpp"
#include "spki/layer.hpp"

using namespace mwsec;

int main() {
  crypto::KeyRing ring(/*seed=*/1924);
  translate::KeyRingDirectory directory(ring);
  const auto& admin = ring.identity("KWebCom");

  std::printf("== Compiling Figure 1 to SPKI/SDSI ==\n");
  auto compiled =
      spki::compile_policy_spki(rbac::salaries_policy(), admin, directory)
          .take();
  std::printf("%zu name certs (role memberships), %zu auth certs "
              "(permissions)\n\n",
              compiled.name_certs.size(), compiled.auth_certs.size());
  std::printf("example name cert body:\n%s\n",
              compiled.name_certs.front().canonical_body().c_str());
  std::printf("example auth cert body:\n%s\n",
              compiled.auth_certs.front().canonical_body().c_str());

  spki::CertStore store;
  spki::load(store, compiled).ok();

  auto check = [&](const char* user, const char* perm) {
    bool ok = spki::spki_check(store, admin.principal(),
                               directory.principal_of(user), "SalariesDB",
                               perm);
    std::printf("  %-7s %-5s -> %s\n", user, perm, ok ? "PERMIT" : "DENY");
    return ok;
  };

  std::printf("== Decisions through tuple reduction ==\n");
  check("Alice", "write");
  check("Alice", "read");
  check("Bob", "read");
  check("Claire", "read");
  check("Claire", "write");
  check("Mallory", "read");

  // Figure 7 in SPKI terms: Bob re-delegates write to contractor Kate
  // with a tag no broader than his own authority.
  std::printf("\n== Bob re-delegates write access to Kate ==\n");
  spki::AuthCert cert;
  cert.issuer_key = directory.principal_of("Bob");
  cert.subject = spki::Subject::of_key(directory.principal_of("Kate"));
  cert.delegate = false;
  cert.tag = spki::Tag::parse("(webcom SalariesDB write)").take();
  cert.sign_with(directory.identity_of("Bob")).ok();
  store.add(cert).ok();
  check("Kate", "write");
  check("Kate", "read");

  // The SPKI layer slots into the Figure 10 stack where the KeyNote layer
  // would sit.
  std::printf("\n== As the L2 layer of the Figure 10 stack ==\n");
  authz::Stack authorizer;
  authorizer.push(std::make_shared<spki::SpkiLayer>(store, admin.principal()));
  authz::Request req;
  req.user = "Bob";
  req.principal = directory.principal_of("Bob");
  req.object_type = "SalariesDB";
  req.permission = "read";
  std::printf("  stack layers: %s\n", authorizer.layer_names()[0].c_str());
  std::printf("  Bob read through the stack -> %s\n",
              authorizer.permitted(req) ? "PERMIT" : "DENY");
  return 0;
}
