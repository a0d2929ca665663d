// Live replication tests: convergence of replicated credential stores,
// decision-cache invalidation on applied deltas, and idempotence /
// tolerance under the network's fault injection (duplicates, reordering,
// loss).
#include <gtest/gtest.h>

#include <thread>

#include "authz/caching.hpp"
#include "authz/keynote_authorizer.hpp"
#include "net/network.hpp"
#include "sync/authority.hpp"
#include "sync/replica.hpp"

namespace mwsec::sync {
namespace {

using namespace std::chrono_literals;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/31415, /*modulus_bits=*/256);
  return r;
}

std::string trust_policy(const std::string& principal) {
  return "Authorizer: POLICY\nLicensees: \"" + principal +
         "\"\nConditions: app_domain == \"WebCom\";\n";
}

keynote::Assertion delegation(const std::string& from, const std::string& to) {
  return keynote::AssertionBuilder()
      .authorizer("\"" + ring().principal(from) + "\"")
      .licensees("\"" + ring().principal(to) + "\"")
      .conditions("app_domain == \"WebCom\"")
      .build_signed(ring().identity(from))
      .take();
}

authz::Request request_for(const std::string& key) {
  authz::Request r;
  r.principal = ring().principal(key);
  return r;
}

/// Fast-converging timing for tests.
Authority::Options fast_authority() {
  Authority::Options o;
  o.poll_interval = 2ms;
  o.retransmit_interval = 10ms;
  return o;
}

Replica::Options fast_replica() {
  Replica::Options o;
  o.poll_interval = 2ms;
  o.heartbeat_interval = 10ms;
  return o;
}

TEST(Replication, ReplicaConvergesAndAgreesOnVerdicts) {
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  Replica replica(net, "rep", replica_store, fast_replica());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  ASSERT_TRUE(
      authority.publish_credential(delegation("KAdm", "KUser")).ok());

  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.policy_count(), 1u);
  EXPECT_EQ(replica_store.credential_count(), 1u);

  // Same verdict both sides, through the same authoriser surface.
  authz::KeyNoteAuthorizer at_authority(authority_store);
  authz::KeyNoteAuthorizer at_replica(replica_store);
  auto req = request_for("KUser");
  EXPECT_TRUE(at_authority.decide(req).permitted());
  EXPECT_TRUE(at_replica.decide(req).permitted());
  EXPECT_FALSE(at_replica.decide(request_for("KStranger")).permitted());
}

TEST(Replication, CachedPermitDiesOnReplicatedRevocation) {
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  Replica replica(net, "rep", replica_store, fast_replica());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  ASSERT_TRUE(
      authority.publish_credential(delegation("KAdm", "KRevoked")).ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));

  // A replica-side decision cache answers from a cached allow-verdict...
  authz::KeyNoteAuthorizer backend(replica_store);
  authz::CachingAuthorizer cached(backend);
  auto req = request_for("KRevoked");
  ASSERT_TRUE(cached.decide(req).permitted());
  ASSERT_TRUE(cached.decide(req).permitted());
  EXPECT_GE(cached.stats().hits, 1u);

  // ...until the authority revokes: the applied delta moves the store
  // version, which IS the cache epoch — no explicit invalidate() call.
  const auto before = authority.epoch();
  EXPECT_EQ(authority.revoke_by_licensee(ring().principal("KRevoked")), 1u);
  ASSERT_GT(authority.epoch(), before);
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));
  EXPECT_FALSE(cached.decide(req).permitted());
}

TEST(Replication, DeltaApplicationIsIdempotentUnderDuplicateDelivery) {
  net::Network::Options nopts;
  nopts.seed = 11;
  nopts.duplicate_probability = 1.0;  // every message delivered twice
  net::Network net(nopts);
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  Replica replica(net, "rep", replica_store, fast_replica());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(authority
                    .publish_credential(
                        delegation("KAdm", "KU" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));

  // Every delta arrived (at least) twice; the store applied each once.
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.credential_count(), 6u);
  // wait_for_epoch returns on the first copy of the last delta. Its second
  // copy — or, when the authority handled the subscribe after the
  // publishes, the second copy of the whole replayed batch — may still be
  // queued, so the duplicate count reaches 7 a moment later.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (replica.stats().duplicates_ignored < 7 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  auto stats = replica.stats();
  EXPECT_EQ(stats.deltas_applied, 7u);
  EXPECT_GE(stats.duplicates_ignored, 7u);
  EXPECT_EQ(stats.apply_errors, 0u);
}

TEST(Replication, MultiLineCredentialAppliesAtAVerifyingReplica) {
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  Replica replica(net, "rep", replica_store, fast_replica());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  // Conditions written over several lines, unindented and indented: the
  // delta carries to_text(), which the replica parses and re-verifies.
  ASSERT_TRUE(authority
                  .publish_credential(
                      keynote::AssertionBuilder()
                          .authorizer("\"" + ring().principal("KAdm") + "\"")
                          .licensees("\"" + ring().principal("KMulti") + "\"")
                          .conditions("app_domain == \"WebCom\" &&\n"
                                      "ObjectType == \"\" &&\n"
                                      "    Permission == \"\"")
                          .build_signed(ring().identity("KAdm"))
                          .take())
                  .ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));
  EXPECT_EQ(replica.stats().apply_errors, 0u);
  EXPECT_EQ(replica_store.credential_count(), 1u);
  authz::KeyNoteAuthorizer at_replica(replica_store);
  EXPECT_TRUE(at_replica.decide(request_for("KMulti")).permitted());

  // The anti-entropy snapshot path verifies the same text.
  keynote::CompiledStore installed;
  EXPECT_TRUE(installed
                  .install_bundle(authority_store.to_bundle_text(),
                                  authority.epoch())
                  .ok());
}

TEST(Replication, ReorderedDeltasAreBufferedAndAppliedInOrder) {
  net::Network::Options nopts;
  nopts.seed = 23;
  nopts.reorder_probability = 0.5;
  net::Network net(nopts);
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  Replica replica(net, "rep", replica_store, fast_replica());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(authority
                    .publish_credential(
                        delegation("KAdm", "KR" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 5s));
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.credential_count(), 20u);
  EXPECT_EQ(replica.stats().apply_errors, 0u);
}

TEST(Replication, ConvergesUnderMessageLoss) {
  net::Network::Options nopts;
  nopts.seed = 47;
  nopts.drop_probability = 0.3;
  net::Network net(nopts);
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  Replica replica(net, "rep", replica_store, fast_replica());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(authority
                    .publish_credential(
                        delegation("KAdm", "KL" + std::to_string(i)))
                    .ok());
  }
  // 30% loss: the ack/retransmit loop (and, for a lost subscribe, the
  // heartbeat-as-subscribe path) must still converge.
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 10s));
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.credential_count(), 15u);
}

TEST(Replication, LateJoinerIsBroughtUpToDate) {
  net::Network net;
  keynote::CompiledStore authority_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(authority
                    .publish_credential(
                        delegation("KAdm", "KJ" + std::to_string(i)))
                    .ok());
  }

  // Subscribe after six epochs of history: the log replays it.
  keynote::CompiledStore replica_store;
  Replica replica(net, "late", replica_store, fast_replica());
  ASSERT_TRUE(replica.subscribe("auth").ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.credential_count(), 5u);
  EXPECT_EQ(authority.stats().snapshots_served, 0u);
  EXPECT_EQ(authority.replica_count(), 1u);
}

TEST(Replication, ManyReplicasAllConverge) {
  net::Network net;
  keynote::CompiledStore authority_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  ASSERT_TRUE(authority.start().ok());

  constexpr int kReplicas = 8;
  std::vector<std::unique_ptr<keynote::CompiledStore>> stores;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    stores.push_back(std::make_unique<keynote::CompiledStore>());
    replicas.push_back(std::make_unique<Replica>(
        net, "rep" + std::to_string(i), *stores.back(), fast_replica()));
    ASSERT_TRUE(replicas.back()->subscribe("auth").ok());
  }

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KFan")).ok());
  for (int i = 0; i < kReplicas; ++i) {
    ASSERT_TRUE(replicas[i]->wait_for_epoch(authority.epoch(), 2s));
    EXPECT_EQ(stores[i]->version(), authority_store.version());
  }
  EXPECT_EQ(authority.replica_count(), kReplicas);

  // Converged: no replica lags. A replica acks after it applies, and the
  // authority reads the ack on its own thread, so the lag reaches 0 a
  // moment after the last wait_for_epoch returns.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (authority.replica_lag() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(authority.replica_lag(), 0u);
}

TEST(Replication, NoOpMutationsPublishNothing) {
  net::Network net;
  keynote::CompiledStore authority_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  ASSERT_TRUE(authority.start().ok());

  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KOnce")).ok());
  const auto once = authority.stats().deltas_published;
  // Re-adding the identical credential does not move the store, so
  // nothing is published; revoking a stranger matches nothing.
  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KOnce")).ok());
  EXPECT_EQ(authority.revoke_by_licensee("rsa-hex:00"), 0u);
  EXPECT_EQ(authority.stats().deltas_published, once);
}

TEST(Replication, PolicyOfferedAsCredentialIsRefusedAndNotPublished) {
  // An unsigned `Authorizer: POLICY` passes signature verification by fiat;
  // published as a credential it would reach every replica as a trust
  // root. The authority refuses it and publishes nothing.
  net::Network net;
  keynote::CompiledStore authority_store;
  Authority authority(net, "auth", authority_store, fast_authority());
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KOnce")).ok());
  const auto published = authority.stats().deltas_published;
  const auto epoch = authority.epoch();

  auto forged =
      keynote::Assertion::parse(trust_policy(ring().principal("KForger")));
  ASSERT_TRUE(forged.ok());
  EXPECT_FALSE(authority.publish_credential(std::move(forged).take()).ok());
  EXPECT_EQ(authority.stats().deltas_published, published);
  EXPECT_EQ(authority.epoch(), epoch);
  EXPECT_EQ(authority_store.policy_count(), 0u);
  EXPECT_EQ(authority_store.credential_count(), 1u);
}

}  // namespace
}  // namespace mwsec::sync
