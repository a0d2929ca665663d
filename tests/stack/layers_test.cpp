// Stacked authorisation tests: Figure 10's pluggable layer combinations.
#include "stack/layers.hpp"

#include <gtest/gtest.h>

#include "authz/keynote_authorizer.hpp"
#include "authz/middleware_authorizer.hpp"
#include "authz/stack.hpp"
#include "middleware/corba/orb.hpp"
#include "obs/trace.hpp"
#include "rbac/fixtures.hpp"
#include "translate/directory.hpp"
#include "translate/rbac_to_keynote.hpp"

namespace mwsec::stack {
namespace {

using authz::Composition;
using authz::Decision;
using authz::KeyNoteAuthorizer;
using authz::MiddlewareAuthorizer;
using authz::Request;

/// A full Figure 10 rig for the Salaries scenario: OS accounts, a CORBA
/// ORB carrying the Figure 1 policy, and a KeyNote store compiled from it
/// with real keys (the TM layer checks signatures).
crypto::KeyRing& rig_ring() {
  static crypto::KeyRing r(/*seed=*/9321, /*modulus_bits=*/256);
  return r;
}

struct Rig {
  OsSecurity os;
  middleware::corba::Orb orb{"unixhost", "orb1"};
  keynote::CompiledStore keynote_store;
  translate::KeyRingDirectory directory{rig_ring()};

  Rig() {
    for (const char* u : {"Alice", "Bob", "Claire", "Dave", "Elaine"}) {
      os.add_account(u).ok();
    }
    os.grant("Bob", "SalariesDB", "read").ok();
    os.grant("Bob", "SalariesDB", "write").ok();
    os.grant("Alice", "SalariesDB", "write").ok();

    orb.define_interface({"SalariesDB", "", {"read", "write"}}).ok();
    orb.define_role("Clerk").ok();
    orb.define_role("Manager").ok();
    orb.grant("Clerk", "SalariesDB", "write").ok();
    orb.grant("Manager", "SalariesDB", "read").ok();
    orb.grant("Manager", "SalariesDB", "write").ok();
    orb.add_user_to_role("Alice", "Clerk").ok();
    orb.add_user_to_role("Bob", "Manager").ok();

    auto compiled = translate::compile_policy_signed(
                        rbac::salaries_policy(),
                        rig_ring().identity("KWebCom"), directory)
                        .take();
    keynote_store.add_policy(compiled.policy).ok();
  }

  Request request(const std::string& user, const std::string& perm,
                  const std::string& domain, const std::string& role) {
    Request r;
    r.user = user;
    r.principal = directory.principal_of(user);
    r.object_type = "SalariesDB";
    r.permission = perm;
    r.domain = domain;
    r.role = role;
    return r;
  }
};

/// Load the signed Figure 6 membership credentials into the store: the
/// POLICY -> KWebCom -> user delegation chain the TM layer evaluates.
void load_memberships(Rig& rig) {
  auto compiled = translate::compile_policy_signed(
                      rbac::salaries_policy(), rig_ring().identity("KWebCom"),
                      rig.directory)
                      .take();
  for (const auto& cred : compiled.membership_credentials) {
    ASSERT_TRUE(rig.keynote_store.add_credential(cred).ok());
  }
}

TEST(Stack, KeyNoteLayerAloneReproducesFigure1) {
  Rig rig;
  load_memberships(rig);
  authz::Stack stack;
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  EXPECT_TRUE(stack.permitted(rig.request("Alice", "write", "Finance", "Clerk")));
  EXPECT_FALSE(stack.permitted(rig.request("Alice", "read", "Finance", "Clerk")));
  EXPECT_TRUE(stack.permitted(rig.request("Bob", "read", "Finance", "Manager")));
  EXPECT_FALSE(stack.permitted(rig.request("Dave", "read", "Sales", "Assistant")));
  EXPECT_FALSE(stack.permitted(rig.request("Mallory", "read", "Finance", "Manager")));
}

TEST(Stack, MiddlewareLayerAbstainsOnForeignObjects) {
  Rig rig;
  MiddlewareAuthorizer layer(rig.orb);
  Request r = rig.request("Bob", "read", "Finance", "Manager");
  EXPECT_EQ(layer.decide(r), Decision::kPermit);
  r.object_type = "UnknownDB";
  EXPECT_EQ(layer.decide(r), Decision::kAbstain);
  r.object_type = "SalariesDB";
  r.user = "Mallory";
  EXPECT_EQ(layer.decide(r), Decision::kDeny);
}

TEST(Stack, OsLayerDeniesUnknownAccounts) {
  Rig rig;
  OsLayer layer(rig.os);
  Request r = rig.request("Mallory", "read", "Finance", "Manager");
  EXPECT_EQ(layer.decide(r), Decision::kDeny);
  r = rig.request("Bob", "read", "Finance", "Manager");
  EXPECT_EQ(layer.decide(r), Decision::kPermit);
  // Claire exists but holds no OS grant on the object: abstain.
  r = rig.request("Claire", "read", "Sales", "Manager");
  EXPECT_EQ(layer.decide(r), Decision::kAbstain);
}

TEST(Stack, AllMustPermitComposition) {
  Rig rig;
  load_memberships(rig);
  authz::Stack stack(Composition::kAllMustPermit);
  stack.push(std::make_shared<OsLayer>(rig.os));
  stack.push(std::make_shared<MiddlewareAuthorizer>(rig.orb));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  // Bob passes all three layers.
  EXPECT_TRUE(stack.permitted(rig.request("Bob", "read", "Finance", "Manager")));
  // Claire: KeyNote permits (Sales manager reads) and OS abstains, but the
  // ORB denies (she is not in its role tables) -> deny wins.
  EXPECT_FALSE(stack.permitted(rig.request("Claire", "read", "Sales", "Manager")));
}

TEST(Stack, PluggabilityDisableCorbasec) {
  // The paper: "in the absence of CORBASec support ... authorisation is
  // based only on KeyNote and the operating system".
  Rig rig;
  load_memberships(rig);
  authz::Stack stack(Composition::kAllMustPermit);
  stack.push(std::make_shared<OsLayer>(rig.os));
  stack.push(std::make_shared<MiddlewareAuthorizer>(rig.orb));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  auto claire = rig.request("Claire", "read", "Sales", "Manager");
  EXPECT_FALSE(stack.permitted(claire));
  ASSERT_TRUE(stack.set_enabled("L1-CORBA", false));
  EXPECT_FALSE(stack.is_enabled("L1-CORBA"));
  EXPECT_TRUE(stack.permitted(claire));
  // Re-plug it.
  ASSERT_TRUE(stack.set_enabled("L1-CORBA", true));
  EXPECT_FALSE(stack.permitted(claire));
  EXPECT_FALSE(stack.set_enabled("L9-nonexistent", true));
}

TEST(Stack, FirstDecisiveTakesTopmostOpinion) {
  Rig rig;
  load_memberships(rig);
  authz::Stack stack(Composition::kFirstDecisive);
  stack.push(std::make_shared<OsLayer>(rig.os));          // bottom
  stack.push(std::make_shared<MiddlewareAuthorizer>(rig.orb));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));  // top

  // KeyNote (top) permits Claire; the ORB's deny is never consulted.
  EXPECT_TRUE(stack.permitted(rig.request("Claire", "read", "Sales", "Manager")));
  // KeyNote denies Alice's read outright.
  EXPECT_FALSE(stack.permitted(rig.request("Alice", "read", "Finance", "Clerk")));
}

TEST(Stack, AnyPermitsComposition) {
  Rig rig;
  authz::Stack stack(Composition::kAnyPermits);
  stack.push(std::make_shared<OsLayer>(rig.os));
  stack.push(std::make_shared<MiddlewareAuthorizer>(rig.orb));
  // TM layer absent entirely. Bob's OS grant suffices.
  EXPECT_TRUE(stack.permitted(rig.request("Bob", "read", "Finance", "Manager")));
  // Mallory is denied by the OS and the ORB.
  EXPECT_FALSE(stack.permitted(rig.request("Mallory", "read", "Finance", "Manager")));
}

TEST(Stack, EmptyOrAllAbstainingStackFailsClosed) {
  Rig rig;
  authz::Stack empty;
  EXPECT_FALSE(empty.permitted(rig.request("Bob", "read", "Finance", "Manager")));

  authz::Stack abstaining;
  abstaining.push(std::make_shared<ApplicationLayer>(
      [](const Request&) { return Decision::kAbstain; }));
  EXPECT_FALSE(
      abstaining.permitted(rig.request("Bob", "read", "Finance", "Manager")));
}

TEST(Stack, ApplicationLayerHook) {
  Rig rig;
  authz::Stack stack;
  stack.push(std::make_shared<ApplicationLayer>([](const Request& r) {
    // Workflow rule: nobody writes salaries on behalf of themselves.
    return r.permission == "write" && r.user == "Alice" ? Decision::kDeny
                                                        : Decision::kPermit;
  }));
  EXPECT_FALSE(stack.permitted(rig.request("Alice", "write", "Finance", "Clerk")));
  EXPECT_TRUE(stack.permitted(rig.request("Bob", "write", "Finance", "Manager")));
}

TEST(Stack, PerLayerStatsAccumulate) {
  Rig rig;
  load_memberships(rig);
  middleware::AuditLog audit;
  authz::Stack stack(Composition::kAllMustPermit, &audit);
  stack.push(std::make_shared<OsLayer>(rig.os));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  stack.permitted(rig.request("Bob", "read", "Finance", "Manager"));
  stack.permitted(rig.request("Mallory", "read", "Finance", "Manager"));
  auto os_stats = stack.stats_for("L0-os");
  EXPECT_EQ(os_stats.permits + os_stats.denies + os_stats.abstains, 2u);
  auto tm_stats = stack.stats_for("L2-keynote");
  EXPECT_EQ(tm_stats.permits, 1u);
  EXPECT_EQ(tm_stats.denies, 1u);
  EXPECT_EQ(audit.size(), 2u);
  EXPECT_EQ(stack.layer_names(),
            (std::vector<std::string>{"L0-os", "L2-keynote"}));
}

/// Enables the global tracer for one test and restores the off-by-default
/// state (other tests must stay uninstrumented).
struct TracerGuard {
  TracerGuard() {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  ~TracerGuard() {
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
  }
};

const obs::SpanRecord* find_last(const std::vector<obs::SpanRecord>& records,
                                 const std::string& name) {
  const obs::SpanRecord* found = nullptr;
  for (const auto& rec : records) {
    if (rec.name == name) found = &rec;
  }
  return found;
}

TEST(StackTrace, DeniedTraceNamesDenyingLayerAndConstraint) {
  Rig rig;
  load_memberships(rig);
  TracerGuard guard;
  middleware::AuditLog audit;
  authz::Stack stack(Composition::kAllMustPermit, &audit);
  stack.push(std::make_shared<OsLayer>(rig.os));
  stack.push(std::make_shared<MiddlewareAuthorizer>(rig.orb));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  // Figure 1: Finance clerks write but do not read — KeyNote denies.
  EXPECT_FALSE(
      stack.permitted(rig.request("Alice", "read", "Finance", "Clerk")));

  auto records = obs::Tracer::global().records();
  const auto* decide = find_last(records, "stack.decide");
  ASSERT_NE(decide, nullptr);
  ASSERT_NE(decide->attr(obs::kAttrDecision), nullptr);
  EXPECT_EQ(*decide->attr(obs::kAttrDecision), "deny");
  ASSERT_NE(decide->attr(obs::kAttrDeniedBy), nullptr);
  EXPECT_EQ(*decide->attr(obs::kAttrDeniedBy), "L2-keynote");
  // The reason names the failing constraint: the action environment the
  // trust query ran under, and the compliance value it produced.
  ASSERT_NE(decide->attr(obs::kAttrReason), nullptr);
  const std::string& reason = *decide->attr(obs::kAttrReason);
  EXPECT_NE(reason.find("compliance"), std::string::npos);
  EXPECT_NE(reason.find("Permission=read"), std::string::npos);
  EXPECT_NE(reason.find("ObjectType=SalariesDB"), std::string::npos);

  // Per-layer child spans exist and link to the decision root.
  const auto* layer_span = find_last(records, "stack.layer");
  ASSERT_NE(layer_span, nullptr);
  EXPECT_EQ(layer_span->parent, decide->id);

  // The JSONL export is attributable without knowing the producer.
  auto jsonl = obs::Tracer::global().to_jsonl();
  EXPECT_NE(jsonl.find("\"denied_by\":\"L2-keynote\""), std::string::npos);

  // The audit log consumed the same decision record.
  auto events = audit.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].allowed);
  EXPECT_EQ(events[0].principal, "Alice");
  EXPECT_NE(events[0].detail.find("L2-keynote"), std::string::npos);
}

TEST(StackTrace, MiddlewareDenialIsAttributedToItsLayer) {
  Rig rig;
  load_memberships(rig);
  TracerGuard guard;
  authz::Stack stack(Composition::kAllMustPermit);
  stack.push(std::make_shared<MiddlewareAuthorizer>(rig.orb));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  // KeyNote permits Claire (Sales manager reads) but the ORB has no role
  // for her: the deny is the middleware layer's.
  EXPECT_FALSE(
      stack.permitted(rig.request("Claire", "read", "Sales", "Manager")));
  const auto records = obs::Tracer::global().records();
  const auto* decide = find_last(records, "stack.decide");
  ASSERT_NE(decide, nullptr);
  ASSERT_NE(decide->attr(obs::kAttrDeniedBy), nullptr);
  EXPECT_EQ(*decide->attr(obs::kAttrDeniedBy), "L1-CORBA");
  ASSERT_NE(decide->attr(obs::kAttrReason), nullptr);
  EXPECT_NE(decide->attr(obs::kAttrReason)->find("Claire"),
            std::string::npos);
}

TEST(StackTrace, PermittedTraceCarriesNoDenyingLayer) {
  Rig rig;
  load_memberships(rig);
  TracerGuard guard;
  authz::Stack stack(Composition::kAllMustPermit);
  stack.push(std::make_shared<OsLayer>(rig.os));
  stack.push(std::make_shared<KeyNoteAuthorizer>(rig.keynote_store));

  EXPECT_TRUE(
      stack.permitted(rig.request("Bob", "read", "Finance", "Manager")));
  const auto records = obs::Tracer::global().records();
  const auto* decide = find_last(records, "stack.decide");
  ASSERT_NE(decide, nullptr);
  ASSERT_NE(decide->attr(obs::kAttrDecision), nullptr);
  EXPECT_EQ(*decide->attr(obs::kAttrDecision), "permit");
  EXPECT_EQ(decide->attr(obs::kAttrDeniedBy), nullptr);
}

TEST(StackTrace, AllAbstainFailClosedIsAttributedToTheStack) {
  Rig rig;
  TracerGuard guard;
  authz::Stack stack;
  stack.push(std::make_shared<ApplicationLayer>(
      [](const Request&) { return Decision::kAbstain; }));
  EXPECT_FALSE(
      stack.permitted(rig.request("Bob", "read", "Finance", "Manager")));
  const auto records = obs::Tracer::global().records();
  const auto* decide = find_last(records, "stack.decide");
  ASSERT_NE(decide, nullptr);
  ASSERT_NE(decide->attr(obs::kAttrDeniedBy), nullptr);
  EXPECT_EQ(*decide->attr(obs::kAttrDeniedBy), "stack");
  ASSERT_NE(decide->attr(obs::kAttrReason), nullptr);
  EXPECT_NE(decide->attr(obs::kAttrReason)->find("fail-closed"),
            std::string::npos);
}

}  // namespace
}  // namespace mwsec::stack
