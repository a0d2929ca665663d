// Figure 9: interoperating security policies across four systems.
//
//   Y — a legacy Windows server: COM+ catalogue, NT domain "Finance".
//   X — its replacement: an EJB server.
//   Z — another Windows/COM system receiving the same policy.
//   W — a bare environment with no middleware security at all, enforcing
//       the policy purely through KeyNote.
//
// The legacy COM policy is comprehended into KeyNote credentials, migrated
// onto X and Z, and enforced directly on W; at the end all four systems
// agree on every access decision the vocabulary can express.
#include <cstdio>

#include "keynote/compiled_store.hpp"
#include "middleware/com/catalogue.hpp"
#include "middleware/ejb/container.hpp"
#include "translate/migration.hpp"

using namespace mwsec;

int main() {
  crypto::KeyRing ring(/*seed=*/1999);
  translate::KeyRingDirectory directory(ring);
  const auto& admin = ring.identity("KWebCom");

  // --- Y: the legacy COM+ system -------------------------------------------
  middleware::com::Catalogue y("winY", "Finance");
  y.register_application({"SalariesDB", "legacy salaries app", {}}).ok();
  y.define_role("Clerk").ok();
  y.define_role("Manager").ok();
  y.grant("Clerk", "SalariesDB", middleware::com::kAccess).ok();
  y.grant("Manager", "SalariesDB", middleware::com::kAccess).ok();
  y.grant("Manager", "SalariesDB", middleware::com::kLaunch).ok();
  y.add_user_to_role("Alice", "Clerk").ok();
  y.add_user_to_role("Bob", "Manager").ok();

  std::printf("== Legacy COM+ policy on Y ==\n%s\n",
              y.export_policy().to_table().c_str());

  // --- Y -> X: migration to EJB via KeyNote credentials --------------------
  middleware::ejb::Server x("hostX", "ejbsrv");
  translate::MigrationOptions to_ejb;
  to_ejb.domain_mapping["Finance"] = "hostX/ejbsrv/ejb/finance";
  auto report = translate::migrate_via_keynote(y, x, admin, directory, to_ejb)
                    .take();
  std::printf("== Migrated Y -> X (EJB) via KeyNote ==\n");
  std::printf("  %zu grants, %zu assignments commissioned, %zu rejected\n\n",
              report.import_stats.grants_applied,
              report.import_stats.assignments_applied,
              report.import_stats.skipped.size());

  // --- Y -> Z: same policy onto another COM system -------------------------
  middleware::com::Catalogue z("winZ", "Finance");
  translate::migrate(y, z, {}).take();

  // --- Y -> W: no middleware security; KeyNote-only enforcement ------------
  auto compiled = translate::compile_policy_signed(y.export_policy(), admin,
                                                   directory)
                      .take();
  keynote::CompiledStore w;
  w.add_policy(compiled.policy).ok();
  for (const auto& cred : compiled.membership_credentials) {
    w.add_credential(cred).ok();
  }
  std::printf("== W holds the policy as %zu KeyNote assertions only ==\n\n",
              1 + w.credential_count());

  // --- Cross-system agreement ----------------------------------------------
  auto w_decide = [&](const std::string& user, const std::string& permission) {
    keynote::Query q;
    q.action_authorizers = {directory.principal_of(user)};
    q.env.set("app_domain", "WebCom");
    q.env.set("ObjectType", "SalariesDB");
    q.env.set("Domain", "Finance");
    q.env.set("Permission", permission);
    // W does not know roles; probe the user's possible roles.
    for (const char* role : {"Clerk", "Manager"}) {
      q.env.set("Role", role);
      if (w.query(q)->authorized()) return true;
    }
    return false;
  };

  std::printf("== Decision agreement across Y, X, Z, W ==\n");
  std::printf("  %-8s %-7s | %-3s %-3s %-3s %-3s\n", "user", "perm", "Y", "X",
              "Z", "W");
  int disagreements = 0;
  for (const char* user : {"Alice", "Bob", "Mallory"}) {
    for (const char* perm :
         {middleware::com::kAccess, middleware::com::kLaunch}) {
      bool on_y = y.mediate(user, "SalariesDB", perm);
      bool on_x = x.mediate(user, "SalariesDB", perm);
      bool on_z = z.mediate(user, "SalariesDB", perm);
      bool on_w = w_decide(user, perm);
      disagreements += (on_y != on_x) + (on_y != on_z) + (on_y != on_w);
      std::printf("  %-8s %-7s | %-3s %-3s %-3s %-3s\n", user, perm,
                  on_y ? "yes" : "no", on_x ? "yes" : "no",
                  on_z ? "yes" : "no", on_w ? "yes" : "no");
    }
  }
  std::printf("\n%s (%d disagreements)\n",
              disagreements == 0 ? "All four systems agree."
                                 : "DISAGREEMENT DETECTED",
              disagreements);
  return disagreements == 0 ? 0 : 1;
}
