// Secure WebCom scheduler tests: Figure 3's mutual mediation, Section 6
// placement, and fault tolerance.
#include "net/network.hpp"
#include "webcom/scheduler.hpp"

#include <gtest/gtest.h>

namespace mwsec::webcom {
namespace {

using namespace std::chrono_literals;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/60417, /*modulus_bits=*/256);
  return r;
}

/// Policy text trusting `principal` for everything in app_domain WebCom.
std::string trust_everything(const std::string& principal) {
  return "Authorizer: POLICY\nLicensees: \"" + principal +
         "\"\nConditions: app_domain == \"WebCom\";\n";
}

/// Policy trusting `principal` only for a (Domain, Role, ObjectType,
/// Permission) combination.
std::string trust_component(const std::string& principal,
                            const std::string& domain, const std::string& role,
                            const std::string& object_type,
                            const std::string& permission) {
  return "Authorizer: POLICY\nLicensees: \"" + principal +
         "\"\nConditions: app_domain == \"WebCom\" && Domain == \"" + domain +
         "\" && Role == \"" + role + "\" && ObjectType == \"" + object_type +
         "\" && Permission == \"" + permission + "\";\n";
}

struct Rig {
  net::Network network;
  std::unique_ptr<Master> master;
  std::vector<std::unique_ptr<Client>> clients;

  Master& m() { return *master; }
};

/// Master "m" plus n clients "c0..", all mutually trusting, executing as
/// Finance/Manager users u0...
std::unique_ptr<Rig> make_rig(std::size_t n_clients, bool security = true) {
  auto rig = std::make_unique<Rig>();
  const auto& master_id = ring().identity("KMaster");
  MasterOptions mopts;
  mopts.security_enabled = security;
  mopts.task_timeout = 150ms;
  rig->master = std::make_unique<Master>(rig->network, "m", master_id, mopts);

  for (std::size_t i = 0; i < n_clients; ++i) {
    std::string name = "c" + std::to_string(i);
    const auto& cid = ring().identity("K" + name);
    ClientOptions copts;
    copts.security_enabled = security;
    copts.domain = "Finance";
    copts.role = "Manager";
    copts.user = "u" + std::to_string(i);
    auto client = std::make_unique<Client>(rig->network, name, cid,
                                           OperationRegistry::with_builtins(),
                                           copts);
    if (security) {
      EXPECT_TRUE(
          client->store().add_policy_text(trust_everything(master_id.principal()))
              .ok());
    }
    EXPECT_TRUE(client->start().ok());
    rig->clients.push_back(std::move(client));

    if (security) {
      EXPECT_TRUE(rig->master->store()
                      .add_policy(keynote::Assertion::parse(
                                      trust_everything(cid.principal()))
                                      .take())
                      .ok());
    }
    ClientInfo info;
    info.endpoint = name;
    info.principal = cid.principal();
    info.domain = copts.domain;
    info.role = copts.role;
    info.user = copts.user;
    EXPECT_TRUE(rig->master->attach_client(info).ok());
  }
  return rig;
}

Graph arithmetic_graph() {
  Graph g;
  NodeId two = g.add_constant("two", "2");
  NodeId three = g.add_constant("three", "3");
  NodeId sum = g.add_node("sum", "add", 2);
  NodeId product = g.add_node("product", "mul", 2);
  g.connect(two, sum, 0).ok();
  g.connect(three, sum, 1).ok();
  g.connect(sum, product, 0).ok();
  g.set_literal(product, 1, "4").ok();
  g.set_exit(product).ok();
  return g;
}

/// A wide workload: `width` independent "add" leaves feeding one "add"
/// chain so the exit depends on everything (2 * width - 1 tasks).
Graph wide_graph(std::size_t width, bool secure) {
  Graph g;
  SecurityTarget t;
  t.object_type = "Calc";
  t.permission = "add";
  NodeId acc = g.add_node("n0", "add", 2);
  g.set_literal(acc, 0, "1").ok();
  g.set_literal(acc, 1, "0").ok();
  if (secure) g.set_target(acc, t).ok();
  for (std::size_t i = 1; i < width; ++i) {
    NodeId leaf = g.add_node("leaf" + std::to_string(i), "add", 2);
    g.set_literal(leaf, 0, "1").ok();
    g.set_literal(leaf, 1, "0").ok();
    if (secure) g.set_target(leaf, t).ok();
    NodeId next = g.add_node("n" + std::to_string(i), "add", 2);
    if (secure) g.set_target(next, t).ok();
    g.connect(acc, next, 0).ok();
    g.connect(leaf, next, 1).ok();
    acc = next;
  }
  g.set_exit(acc).ok();
  return g;
}

TEST(Scheduler, InsecureDistributedExecution) {
  auto rig = make_rig(2, /*security=*/false);
  auto v = rig->m().execute(arithmetic_graph());
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "20");
  EXPECT_EQ(rig->m().stats().tasks_completed, 4u);
  EXPECT_EQ(rig->m().stats().keynote_queries, 0u);
}

TEST(Scheduler, SecureExecutionWithMutualTrust) {
  auto rig = make_rig(2);
  Graph g = arithmetic_graph();
  SecurityTarget t;
  t.object_type = "Calc";
  t.permission = "add";
  g.set_target(2, t).ok();
  auto v = rig->m().execute(g);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "20");
  EXPECT_GT(rig->m().stats().keynote_queries, 0u);
}

TEST(Scheduler, PlacementConstraintRoutesToNamedUser) {
  auto rig = make_rig(3);
  Graph g;
  NodeId n = g.add_node("only-u2", "upper", 1);
  g.set_literal(n, 0, "x").ok();
  SecurityTarget t;
  t.user = "u2";
  g.set_target(n, t).ok();
  g.set_exit(n).ok();
  auto v = rig->m().execute(g);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "X");
  // Only client c2 (user u2) executed anything.
  EXPECT_EQ(rig->clients[0]->stats().tasks_executed, 0u);
  EXPECT_EQ(rig->clients[1]->stats().tasks_executed, 0u);
  EXPECT_EQ(rig->clients[2]->stats().tasks_executed, 1u);
}

TEST(Scheduler, PlacementConstraintUnsatisfiableIsDenied) {
  auto rig = make_rig(2);
  Graph g;
  NodeId n = g.add_node("nowhere", "upper", 1);
  g.set_literal(n, 0, "x").ok();
  SecurityTarget t;
  t.user = "nosuchuser";
  g.set_target(n, t).ok();
  g.set_exit(n).ok();
  auto v = rig->m().execute(g);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "denied");
  EXPECT_EQ(rig->m().stats().tasks_denied_by_master, 1u);
}

TEST(Scheduler, PartialSpecificationDomainOnly) {
  auto rig = make_rig(2);
  Graph g;
  NodeId n = g.add_node("fin", "upper", 1);
  g.set_literal(n, 0, "ok").ok();
  SecurityTarget t;
  t.domain = "Finance";  // any Finance client will do
  g.set_target(n, t).ok();
  g.set_exit(n).ok();
  auto v = rig->m().execute(g);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "OK");
}

TEST(Scheduler, MasterDeniesUnauthorisedComponent) {
  // Master trusts the client only for ObjectType "Calc" permission "add";
  // a node demanding "launch" on "Reactor" has no eligible client.
  net::Network network;
  const auto& master_id = ring().identity("KMaster");
  MasterOptions mopts;
  mopts.task_timeout = 150ms;
  Master master(network, "m2", master_id, mopts);

  const auto& cid = ring().identity("Kclient-narrow");
  ClientOptions copts;
  copts.domain = "Finance";
  copts.role = "Manager";
  copts.user = "u";
  Client client(network, "cn", cid, OperationRegistry::with_builtins(), copts);
  client.store().add_policy_text(trust_everything(master_id.principal())).ok();
  ASSERT_TRUE(client.start().ok());

  master.store()
      .add_policy(keynote::Assertion::parse(
                      trust_component(cid.principal(), "Finance", "Manager",
                                      "Calc", "add"))
                      .take())
      .ok();
  ClientInfo info{"cn", cid.principal(), {}, "Finance", "Manager", "u"};
  ASSERT_TRUE(master.attach_client(info).ok());

  // Authorised component works.
  Graph ok_graph;
  NodeId a = ok_graph.add_node("a", "add", 2);
  ok_graph.set_literal(a, 0, "1").ok();
  ok_graph.set_literal(a, 1, "2").ok();
  SecurityTarget t1{"Calc", "add", "", "", ""};
  ok_graph.set_target(a, t1).ok();
  ok_graph.set_exit(a).ok();
  EXPECT_TRUE(master.execute(ok_graph).ok());

  // Unauthorised component is refused before dispatch.
  Graph bad_graph;
  NodeId b = bad_graph.add_node("b", "upper", 1);
  bad_graph.set_literal(b, 0, "x").ok();
  SecurityTarget t2{"Reactor", "launch", "", "", ""};
  bad_graph.set_target(b, t2).ok();
  bad_graph.set_exit(b).ok();
  auto v = master.execute(bad_graph);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "denied");
}

TEST(Scheduler, ClientRejectsUntrustedMaster) {
  // The client's store does NOT trust this master.
  net::Network network;
  const auto& master_id = ring().identity("KRogueMaster");
  MasterOptions mopts;
  mopts.task_timeout = 150ms;
  Master master(network, "m3", master_id, mopts);

  const auto& cid = ring().identity("Kcautious");
  ClientOptions copts;
  copts.domain = "Finance";
  copts.role = "Manager";
  copts.user = "u";
  Client client(network, "cc", cid, OperationRegistry::with_builtins(), copts);
  // client.store() left empty: trusts nobody.
  ASSERT_TRUE(client.start().ok());

  master.store()
      .add_policy(
          keynote::Assertion::parse(trust_everything(cid.principal())).take())
      .ok();
  ClientInfo info{"cc", cid.principal(), {}, "Finance", "Manager", "u"};
  ASSERT_TRUE(master.attach_client(info).ok());

  auto v = master.execute(arithmetic_graph());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "denied");
  EXPECT_EQ(master.stats().tasks_denied_by_client, 1u);
  EXPECT_GT(client.stats().tasks_rejected, 0u);
}

TEST(Scheduler, FaultToleranceReschedulesAfterClientDeath) {
  auto rig = make_rig(2, /*security=*/false);
  // Kill c0 before execution: its tasks will time out and move to c1.
  rig->network.kill("c0");
  auto v = rig->m().execute(arithmetic_graph());
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "20");
}

TEST(Scheduler, AllClientsDeadFailsAfterRetries) {
  auto rig = make_rig(1, /*security=*/false);
  rig->network.kill("c0");
  auto v = rig->m().execute(arithmetic_graph());
  ASSERT_FALSE(v.ok());
}

TEST(Scheduler, PartitionHealsMidRun) {
  auto rig = make_rig(2, /*security=*/false);
  // Partition c0; execution proceeds on c1 after timeouts.
  rig->network.set_partitioned("m", "c0", true);
  auto v = rig->m().execute(arithmetic_graph());
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "20");
}

TEST(Scheduler, AttachRejectsBadCredential) {
  auto rig = make_rig(1);
  ClientInfo info;
  info.endpoint = "cx";
  info.principal = "rsa-hex:00";
  auto unsigned_cred = keynote::AssertionBuilder()
                           .authorizer("\"rsa-hex:00\"")
                           .licensees("\"K\"")
                           .conditions("true")
                           .build()
                           .take();
  info.credentials.push_back(unsigned_cred);
  EXPECT_FALSE(rig->m().attach_client(info).ok());
}

TEST(Scheduler, AttachRefusesPolicyPresentedAsCredential) {
  // A client whose credentials hold a self-issued, unsigned
  // `Authorizer: POLICY` naming itself must not become its own trust root
  // in the master's store.
  auto rig = make_rig(0);
  const auto& cid = ring().identity("Kself-rooted");
  ClientOptions copts;
  copts.domain = "Finance";
  copts.role = "Manager";
  copts.user = "u";
  Client client(rig->network, "cself", cid, OperationRegistry::with_builtins(),
                copts);
  ASSERT_TRUE(client.store()
                  .add_policy_text(
                      trust_everything(ring().principal("KMaster")))
                  .ok());
  ASSERT_TRUE(client.start().ok());

  ClientInfo info{"cself", cid.principal(), {}, "Finance", "Manager", "u"};
  info.credentials.push_back(
      keynote::Assertion::parse(trust_everything(cid.principal())).take());
  const auto version = rig->m().store().version();
  EXPECT_FALSE(rig->m().attach_client(info).ok());
  EXPECT_EQ(rig->m().client_count(), 0u);
  EXPECT_EQ(rig->m().store().policy_count(), 0u);
  EXPECT_EQ(rig->m().store().credential_count(), 0u);
  EXPECT_EQ(rig->m().store().version(), version);

  // Attached without the forged root, nothing in the master's store
  // trusts the client: secure work is still refused before dispatch.
  info.credentials.clear();
  ASSERT_TRUE(rig->m().attach_client(info).ok());
  auto v = rig->m().execute(wide_graph(1, /*secure=*/true));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "denied");
  EXPECT_EQ(rig->m().stats().tasks_dispatched, 0u);
  EXPECT_EQ(client.stats().tasks_executed, 0u);
}

TEST(Scheduler, CondensedNodesAreFlattenedTransparently) {
  auto rig = make_rig(1, /*security=*/false);
  // sub: upper(concat(x, "!")) with one entry port.
  Graph sub;
  NodeId in = sub.add_node("in", "const", 1);
  NodeId bang = sub.add_node("bang", "concat", 2);
  NodeId up = sub.add_node("up", "upper", 1);
  sub.connect(in, bang, 0).ok();
  sub.set_literal(bang, 1, "!").ok();
  sub.connect(bang, up, 0).ok();
  sub.set_exit(up).ok();
  sub.add_entry(in, 0).ok();

  Graph g;
  NodeId c = g.add_constant("c", "hi");
  NodeId box = g.add_condensed("box", sub);
  g.connect(c, box, 0).ok();
  g.set_exit(box).ok();
  auto v = rig->m().execute(g);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "HI!");
  EXPECT_EQ(rig->m().stats().tasks_completed, 4u);  // c + 3 spliced nodes
}

TEST(Scheduler, WideGraphUsesMultipleClients) {
  auto rig = make_rig(3, /*security=*/false);
  Graph g;
  std::vector<NodeId> hashes;
  for (int i = 0; i < 9; ++i) {
    NodeId h = g.add_node("h" + std::to_string(i), "sha.hex", 1);
    g.set_literal(h, 0, "input" + std::to_string(i)).ok();
    hashes.push_back(h);
  }
  NodeId join = g.add_node("join", "concat", hashes.size());
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    g.connect(hashes[i], join, i).ok();
  }
  NodeId len = g.add_node("len", "len", 1);
  g.connect(join, len, 0).ok();
  g.set_exit(len).ok();
  auto v = rig->m().execute(g);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "576");  // 9 * 64 hex chars
  EXPECT_EQ(rig->m().stats().tasks_completed, 11u);
}

TEST(Scheduler, WideSecureGraphCountsEveryTask) {
  constexpr std::size_t kWidth = 16;
  auto rig = make_rig(4);
  auto v = rig->m().execute(wide_graph(kWidth, /*secure=*/true));
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, std::to_string(kWidth));
  const auto st = rig->m().stats();
  EXPECT_EQ(st.tasks_completed, 2 * kWidth - 1);
  EXPECT_EQ(st.tasks_denied_by_master, 0u);
  EXPECT_EQ(st.tasks_denied_by_client, 0u);
  EXPECT_GT(st.keynote_queries, 0u);
}

TEST(Scheduler, InsecureRunMakesNoKeyNoteQueries) {
  auto rig = make_rig(4, /*security=*/false);
  auto v = rig->m().execute(wide_graph(12, /*secure=*/false));
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(rig->m().stats().keynote_queries, 0u);
  EXPECT_EQ(rig->m().stats().tasks_completed, 23u);
}

TEST(Scheduler, RepeatedExecutionsReuseTheDecisionCache) {
  auto rig = make_rig(4);
  const Graph g = wide_graph(8, /*secure=*/true);
  auto first = rig->m().execute(g);
  ASSERT_TRUE(first.ok()) << first.error().message;
  const auto queries_after_first = rig->m().stats().keynote_queries;
  auto second = rig->m().execute(g);
  ASSERT_TRUE(second.ok()) << second.error().message;
  // Same store epoch, same requests: the second run is all cache hits.
  EXPECT_EQ(rig->m().stats().keynote_queries, queries_after_first);
  EXPECT_GT(rig->m().stats().decision_cache_hits, 0u);
}

}  // namespace
}  // namespace mwsec::webcom
