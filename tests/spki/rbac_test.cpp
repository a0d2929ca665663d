// RBAC -> SPKI/SDSI encoding tests: the footnote-1 claim that the paper's
// results "are applicable to SPKI/SDSI". The property: the SPKI decision
// procedure agrees with rbac::Policy::check (and therefore with the
// KeyNote encoding, which is separately proven equivalent).
#include "spki/rbac_to_spki.hpp"

#include <gtest/gtest.h>

#include "authz/stack.hpp"
#include "rbac/fixtures.hpp"
#include "spki/layer.hpp"

namespace mwsec::spki {
namespace {

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/1996, /*modulus_bits=*/256);
  return r;
}

struct Rig {
  translate::KeyRingDirectory directory{ring()};
  CertStore store;
  std::string admin;

  explicit Rig(const rbac::Policy& policy) {
    const auto& admin_id = ring().identity("KWebCom");
    admin = admin_id.principal();
    auto compiled = compile_policy_spki(policy, admin_id, directory).take();
    EXPECT_TRUE(load(store, compiled).ok());
  }

  bool check(const std::string& user, const std::string& object_type,
             const std::string& permission) {
    return spki_check(store, admin, directory.principal_of(user), object_type,
                      permission);
  }
};

TEST(SpkiRbac, Figure1DecisionMatrix) {
  Rig rig(rbac::salaries_policy());
  EXPECT_TRUE(rig.check("Alice", "SalariesDB", "write"));
  EXPECT_FALSE(rig.check("Alice", "SalariesDB", "read"));
  EXPECT_TRUE(rig.check("Bob", "SalariesDB", "read"));
  EXPECT_TRUE(rig.check("Bob", "SalariesDB", "write"));
  EXPECT_TRUE(rig.check("Claire", "SalariesDB", "read"));
  EXPECT_FALSE(rig.check("Claire", "SalariesDB", "write"));
  EXPECT_FALSE(rig.check("Dave", "SalariesDB", "read"));
  EXPECT_FALSE(rig.check("Mallory", "SalariesDB", "read"));
}

TEST(SpkiRbac, RoleIdentifierAndTagShapes) {
  EXPECT_EQ(role_identifier("Finance", "Manager"), "Finance.Manager");
  EXPECT_EQ(permission_tag("SalariesDB", "read").to_text(),
            "(webcom SalariesDB read)");
}

TEST(SpkiRbac, CompiledCertCounts) {
  translate::KeyRingDirectory dir(ring());
  auto compiled = compile_policy_spki(rbac::salaries_policy(),
                                      ring().identity("KWebCom"), dir)
                      .take();
  EXPECT_EQ(compiled.name_certs.size(),
            rbac::salaries_policy().assignments().size());
  EXPECT_EQ(compiled.auth_certs.size(),
            rbac::salaries_policy().grants().size());
  for (const auto& c : compiled.name_certs) EXPECT_TRUE(c.verify().ok());
  for (const auto& c : compiled.auth_certs) EXPECT_TRUE(c.verify().ok());
}

class SpkiEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpkiEquivalence, AgreesWithRbacCheckOnRandomPolicies) {
  rbac::SyntheticSpec spec;
  spec.users = 12;
  spec.domains = 3;
  spec.roles_per_domain = 4;
  rbac::Policy policy = rbac::synthetic_policy(spec, GetParam() * 131 + 7);
  Rig rig(policy);
  for (const auto& user : policy.users()) {
    for (const auto& ot : policy.object_types()) {
      for (const char* perm : {"read", "write", "create", "delete", "launch",
                               "access", "nothing"}) {
        EXPECT_EQ(policy.check({user, ot, perm}), rig.check(user, ot, perm))
            << user << " " << ot << " " << perm;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpkiEquivalence,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(SpkiRbac, UserRedelegation) {
  // Figure 7 in SPKI form: Bob (a Finance Manager) re-delegates his
  // authority to contractor Kate with a narrower tag.
  Rig rig(rbac::salaries_policy());
  AuthCert cert;
  cert.issuer_key = rig.directory.principal_of("Bob");
  cert.subject = Subject::of_key(rig.directory.principal_of("Kate"));
  cert.delegate = false;
  cert.tag = Tag::parse("(webcom SalariesDB write)").take();
  ASSERT_TRUE(cert.sign_with(rig.directory.identity_of("Bob")).ok());
  ASSERT_TRUE(rig.store.add(cert).ok());

  EXPECT_TRUE(rig.check("Kate", "SalariesDB", "write"));
  EXPECT_FALSE(rig.check("Kate", "SalariesDB", "read"));  // not delegated
}

TEST(SpkiRbac, RedelegationCannotAmplify) {
  // Claire (Sales Manager: read only) re-delegates "(*)" to Fred; Fred
  // still gets at most Claire's authority.
  Rig rig(rbac::salaries_policy());
  AuthCert cert;
  cert.issuer_key = rig.directory.principal_of("Claire");
  cert.subject = Subject::of_key(rig.directory.principal_of("Fred"));
  cert.delegate = false;
  cert.tag = Tag::all();
  ASSERT_TRUE(cert.sign_with(rig.directory.identity_of("Claire")).ok());
  ASSERT_TRUE(rig.store.add(cert).ok());

  EXPECT_TRUE(rig.check("Fred", "SalariesDB", "read"));
  EXPECT_FALSE(rig.check("Fred", "SalariesDB", "write"));
}

TEST(SpkiLayerTest, PlugsIntoTheFigure10Stack) {
  Rig rig(rbac::salaries_policy());
  authz::Stack authorizer;
  authorizer.push(std::make_shared<SpkiLayer>(rig.store, rig.admin));
  EXPECT_EQ(authorizer.layer_names(),
            std::vector<std::string>{"L2-spki"});

  authz::Request r;
  r.user = "Bob";
  r.principal = rig.directory.principal_of("Bob");
  r.object_type = "SalariesDB";
  r.permission = "read";
  EXPECT_TRUE(authorizer.permitted(r));
  r.permission = "drop";
  EXPECT_FALSE(authorizer.permitted(r));
  r.principal = rig.directory.principal_of("Mallory");
  r.permission = "read";
  EXPECT_FALSE(authorizer.permitted(r));
}

}  // namespace
}  // namespace mwsec::spki
