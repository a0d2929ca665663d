// Whole-system integration: the paper's machinery end to end in one
// scenario, crossing every module boundary —
//   COM+ catalogue --export--> RBAC --compile--> KeyNote credentials
//   --> stacked authoriser --> IDE interrogation --> Secure WebCom
//   execution --> KeyCOM onboarding of a new employee --> re-run.
#include <gtest/gtest.h>

#include "authz/keynote_authorizer.hpp"
#include "authz/middleware_authorizer.hpp"
#include "authz/stack.hpp"
#include "net/network.hpp"
#include "ide/palette.hpp"
#include "keycom/service.hpp"
#include "middleware/com/catalogue.hpp"
#include "translate/rbac_to_keynote.hpp"
#include "webcom/scheduler.hpp"

namespace mwsec {
namespace {

using namespace std::chrono_literals;

TEST(FullSystem, PaperScenarioEndToEnd) {
  crypto::KeyRing ring(/*seed=*/7007, /*modulus_bits=*/256);
  translate::KeyRingDirectory directory(ring);
  const auto& admin = ring.identity("KWebCom");

  // --- 1. A native COM+ policy store with business logic ------------------
  middleware::AuditLog audit;
  middleware::com::Catalogue catalogue("winsrv", "Finance", &audit);
  ASSERT_TRUE(
      catalogue.register_application({"SalariesDB", "salaries", {}}).ok());
  catalogue.define_role("Manager").ok();
  catalogue.grant("Manager", "SalariesDB", middleware::com::kAccess).ok();
  catalogue.grant("Manager", "SalariesDB", middleware::com::kLaunch).ok();
  catalogue.add_user_to_role("bob", "Manager").ok();
  catalogue
      .install_handler("SalariesDB", "total",
                       [](const std::string&, const std::string&) {
                         return std::string("1234567");
                       })
      .ok();

  // --- 2. Comprehend it as KeyNote credentials ----------------------------
  auto exported = catalogue.export_policy();
  auto compiled =
      translate::compile_policy_signed(exported, admin, directory).take();
  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy(compiled.policy).ok());
  for (const auto& cred : compiled.membership_credentials) {
    ASSERT_TRUE(store.add_credential(cred).ok());
  }

  // --- 3. Stacked authorisation over both layers --------------------------
  authz::Stack authorizer(authz::Composition::kAllMustPermit, &audit);
  authorizer.push(std::make_shared<authz::MiddlewareAuthorizer>(catalogue));
  authorizer.push(std::make_shared<authz::KeyNoteAuthorizer>(store));
  authz::Request req;
  req.user = "bob";
  req.principal = directory.principal_of("bob");
  req.object_type = "SalariesDB";
  req.permission = "Access";
  req.domain = "Finance";
  req.role = "Manager";
  EXPECT_TRUE(authorizer.permitted(req));
  req.user = "eve";
  req.principal = directory.principal_of("eve");
  EXPECT_FALSE(authorizer.permitted(req));

  // --- 4. IDE interrogation drives a placement ----------------------------
  ide::Interrogator interrogator;
  interrogator.add_system(&catalogue);
  auto palette = interrogator.build();
  const std::string component_id = "com://winsrv/Finance/SalariesDB#total";
  const auto* entry = palette.find(component_id);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->authorized.empty());
  EXPECT_EQ(entry->authorized[0].user, "bob");
  auto target = ide::Interrogator::make_target(entry->component, "Finance",
                                               "Manager", "bob");
  ASSERT_TRUE(
      interrogator.validate_target(palette, component_id, target).ok());

  // --- 5. Secure WebCom executes the component ----------------------------
  net::Network network;
  webcom::MasterOptions mopts;
  mopts.task_timeout = 500ms;
  webcom::Master master(network, "master", ring.identity("KMaster"), mopts);
  master.store()
      .add_policy(compiled.policy)
      .ok();
  for (const auto& cred : compiled.membership_credentials) {
    master.store().add_credential(cred).ok();
  }

  // The client executes as bob and binds the COM component as an op.
  webcom::OperationRegistry registry;
  registry.add("salaries.total",
               [&catalogue](const std::vector<webcom::Value>&)
                   -> mwsec::Result<webcom::Value> {
                 return catalogue.call("bob", "SalariesDB", "total");
               });
  webcom::ClientOptions copts;
  copts.domain = "Finance";
  copts.role = "Manager";
  copts.user = "bob";
  webcom::Client client(network, "bobs-node", directory.identity_of("bob"),
                        std::move(registry), copts);
  client.store()
      .add_policy_text("Authorizer: POLICY\nLicensees: \"" +
                       ring.principal("KMaster") +
                       "\"\nConditions: app_domain == \"WebCom\";\n")
      .ok();
  ASSERT_TRUE(client.start().ok());
  webcom::ClientInfo info;
  info.endpoint = "bobs-node";
  info.principal = directory.principal_of("bob");
  info.domain = "Finance";
  info.role = "Manager";
  info.user = "bob";
  ASSERT_TRUE(master.attach_client(info).ok());

  webcom::Graph g;
  webcom::NodeId n = g.add_node("total", "salaries.total", 0);
  webcom::SecurityTarget t;
  t.object_type = "SalariesDB";
  t.permission = "Access";
  t.domain = "Finance";
  g.set_target(n, t).ok();
  g.set_exit(n).ok();
  auto value = master.execute(g);
  ASSERT_TRUE(value.ok()) << value.error().message;
  EXPECT_EQ(*value, "1234567");

  // --- 6. KeyCOM onboards a new manager; the stack honours it -------------
  keycom::Service keycom_service(catalogue, &audit);
  keycom_service.trust_root()
      .add_policy_text("Authorizer: POLICY\nLicensees: \"" +
                       admin.principal() +
                       "\"\nConditions: app_domain == \"WebCom\";\n")
      .ok();
  keycom::UpdateRequest update;
  update.add_assignments.push_back({"Finance", "Manager", "nadia"});
  update.sign(admin);
  auto report = keycom_service.apply(update);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->fully_applied());

  // The middleware layer now permits nadia...
  authz::Request nadia;
  nadia.user = "nadia";
  nadia.principal = directory.principal_of("nadia");
  nadia.object_type = "SalariesDB";
  nadia.permission = "Access";
  nadia.domain = "Finance";
  nadia.role = "Manager";
  EXPECT_TRUE(catalogue.mediate("nadia", "SalariesDB", "Access"));
  // ...but the TM layer still lacks her membership credential (the stack
  // is all-must-permit): propagate it, as §4.4 prescribes, then re-check.
  EXPECT_FALSE(authorizer.permitted(nadia));
  auto recompiled = translate::compile_policy_signed(
                        catalogue.export_policy(), admin, directory)
                        .take();
  for (const auto& cred : recompiled.membership_credentials) {
    store.add_credential(cred).ok();
  }
  EXPECT_TRUE(authorizer.permitted(nadia));

  EXPECT_GT(audit.size(), 0u);
}

}  // namespace
}  // namespace mwsec
