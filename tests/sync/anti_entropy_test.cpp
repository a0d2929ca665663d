// Anti-entropy: a replica that the delta log cannot catch up — partitioned
// past `snapshot_lag`, or behind a version hole from a direct store
// mutation — reconverges via a full snapshot, ending at exact version
// parity and identical verdicts; one exactly `snapshot_lag` behind is
// still replayed from the log.
#include <gtest/gtest.h>

#include <thread>

#include "authz/keynote_authorizer.hpp"
#include "net/network.hpp"
#include "sync/authority.hpp"
#include "sync/replica.hpp"

namespace mwsec::sync {
namespace {

using namespace std::chrono_literals;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/8128, /*modulus_bits=*/256);
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

/// Verdict parity over a battery of principals, authority vs replica.
void expect_same_verdicts(const keynote::CompiledStore& a,
                          const keynote::CompiledStore& b,
                          const std::vector<std::string>& keys) {
  authz::KeyNoteAuthorizer authority_side(a, "authority");
  authz::KeyNoteAuthorizer replica_side(b, "replica");
  for (const auto& key : keys) {
    authz::Request req;
    req.principal = ring().principal(key);
    EXPECT_EQ(authority_side.decide(req).permitted(),
              replica_side.decide(req).permitted())
        << "verdicts diverge for " << key;
  }
}

TEST(AntiEntropy, PartitionedReplicaReconvergesViaSnapshot) {
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority::Options aopts;
  aopts.poll_interval = 2ms;
  aopts.retransmit_interval = 10ms;
  aopts.snapshot_lag = 4;  // small, so the partition gap exceeds it
  Authority authority(net, "auth", authority_store, aopts);
  Replica::Options ropts;
  ropts.poll_interval = 2ms;
  ropts.heartbeat_interval = 10ms;
  Replica replica(net, "rep", replica_store, ropts);
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KEarly")).ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));

  // Partition, then publish far more epochs than snapshot_lag: adds and a
  // revocation the replica must not miss.
  net.set_partitioned("auth", "rep", true);
  std::vector<std::string> keys{"KEarly"};
  for (int i = 0; i < 10; ++i) {
    std::string key = "KPart" + std::to_string(i);
    ASSERT_TRUE(authority.publish_credential(delegation("KAdm", key)).ok());
    keys.push_back(key);
  }
  EXPECT_EQ(authority.revoke_by_licensee(ring().principal("KEarly")), 1u);
  const auto target = authority.epoch();
  EXPECT_GT(target, replica.epoch() + aopts.snapshot_lag);

  net.set_partitioned("auth", "rep", false);
  // The replica's heartbeat ack pulls it back in; the gap exceeds
  // snapshot_lag, so the authority serves a snapshot rather than replay.
  ASSERT_TRUE(replica.wait_for_epoch(target, 5s));
  EXPECT_GE(replica.stats().snapshots_installed, 1u);
  EXPECT_GE(authority.stats().snapshots_served, 1u);
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.credential_count(),
            authority_store.credential_count());
  keys.push_back("KStranger");
  expect_same_verdicts(authority_store, replica_store, keys);
}

TEST(AntiEntropy, GapOfExactlySnapshotLagIsReplayedFromTheLog) {
  // The log keeps the newest snapshot_lag deltas, which is every delta a
  // replica at most snapshot_lag epochs behind still needs.
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority::Options aopts;
  aopts.poll_interval = 2ms;
  aopts.retransmit_interval = 10ms;
  aopts.snapshot_lag = 4;
  Authority authority(net, "auth", authority_store, aopts);
  Replica::Options ropts;
  ropts.poll_interval = 2ms;
  ropts.heartbeat_interval = 10ms;
  Replica replica(net, "rep", replica_store, ropts);
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));
  // Wait for the authority to read the replica's ack too, so the gap
  // below is measured from the epoch the authority knows about.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (authority.replica_lag() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(authority.replica_lag(), 0u);

  net.set_partitioned("auth", "rep", true);
  const auto before = replica.epoch();
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    std::string key = "KLag" + std::to_string(i);
    ASSERT_TRUE(authority.publish_credential(delegation("KAdm", key)).ok());
    keys.push_back(key);
  }
  ASSERT_EQ(authority.epoch(), before + aopts.snapshot_lag);

  net.set_partitioned("auth", "rep", false);
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 5s));
  EXPECT_EQ(authority.stats().snapshots_served, 0u);
  EXPECT_EQ(replica.stats().snapshots_installed, 0u);
  EXPECT_GE(authority.stats().retransmits, 1u);
  EXPECT_EQ(replica_store.credential_count(),
            authority_store.credential_count());
  expect_same_verdicts(authority_store, replica_store, keys);
}

TEST(AntiEntropy, ZeroSnapshotLagBroadcastsAndCatchesUpBySnapshot) {
  // snapshot_lag 0 leaves the log empty after every publish: the
  // broadcast must not depend on it, and any catch-up is a snapshot.
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority::Options aopts;
  aopts.poll_interval = 2ms;
  aopts.retransmit_interval = 10ms;
  aopts.snapshot_lag = 0;
  Authority authority(net, "auth", authority_store, aopts);
  Replica::Options ropts;
  ropts.poll_interval = 2ms;
  ropts.heartbeat_interval = 10ms;
  Replica replica(net, "rep", replica_store, ropts);
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(
      authority.publish_policy_text(trust_policy(ring().principal("KAdm")))
          .ok());
  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KA")).ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));

  net.set_partitioned("auth", "rep", true);
  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KB")).ok());
  net.set_partitioned("auth", "rep", false);
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 5s));
  EXPECT_GE(replica.stats().snapshots_installed, 1u);
  EXPECT_EQ(replica_store.version(), authority_store.version());
  expect_same_verdicts(authority_store, replica_store, {"KA", "KB", "KC"});
}

TEST(AntiEntropy, DirectStoreMutationHoleHealsViaSnapshot) {
  net::Network net;
  keynote::CompiledStore authority_store;
  keynote::CompiledStore replica_store;
  Authority::Options aopts;
  aopts.poll_interval = 2ms;
  aopts.retransmit_interval = 10ms;
  Authority authority(net, "auth", authority_store, aopts);
  Replica::Options ropts;
  ropts.poll_interval = 2ms;
  ropts.heartbeat_interval = 10ms;
  Replica replica(net, "rep", replica_store, ropts);
  ASSERT_TRUE(authority.start().ok());
  ASSERT_TRUE(replica.subscribe("auth").ok());

  ASSERT_TRUE(authority.publish_credential(delegation("KAdm", "KA")).ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority.epoch(), 2s));

  // Mutate the store *around* the authority: the version moves with no
  // log entry, so the log can never bridge the hole — the serve loop's
  // lag check must degrade to a snapshot on its own.
  ASSERT_TRUE(authority_store
                  .add_policy_text(trust_policy(ring().principal("KAdm")))
                  .ok());
  ASSERT_TRUE(replica.wait_for_epoch(authority_store.version(), 5s));
  EXPECT_GE(replica.stats().snapshots_installed, 1u);
  EXPECT_EQ(replica_store.version(), authority_store.version());
  EXPECT_EQ(replica_store.policy_count(), 1u);
  expect_same_verdicts(authority_store, replica_store, {"KA", "KB"});
}

TEST(AntiEntropy, SnapshotInstallSupersedesBufferedDeltas) {
  // A replica holding out-of-order deltas that a snapshot then covers must
  // drop them (epoch <= applied) instead of re-applying.
  net::Network net;
  keynote::CompiledStore store;
  Replica::Options ropts;
  ropts.poll_interval = 2ms;
  Replica replica(net, "rep", store, ropts);
  auto driver = net.open("auth").take();
  ASSERT_TRUE(replica.subscribe("auth").ok());

  // Epoch 3 arrives first (gap: 2 missing) and is buffered.
  DeltaBatch ooo;
  ooo.deltas.push_back({3, DeltaKind::kRevokeByLicensee, "rsa-hex:00", {}});
  ASSERT_TRUE(driver->send("rep", kSubjectDelta, ooo.encode()).ok());

  // Snapshot at epoch 4 supersedes everything buffered.
  keynote::CompiledStore source;
  ASSERT_TRUE(
      source.add_policy_text(trust_policy(ring().principal("KAdm"))).ok());
  SnapshotMessage snap;
  snap.epoch = 4;
  snap.bundle = source.to_bundle_text();
  ASSERT_TRUE(driver->send("rep", kSubjectSnapshot, snap.encode()).ok());

  ASSERT_TRUE(replica.wait_for_epoch(4, 2s));
  EXPECT_EQ(store.version(), 4u);
  EXPECT_EQ(store.policy_count(), 1u);
  auto stats = replica.stats();
  EXPECT_EQ(stats.snapshots_installed, 1u);
  EXPECT_EQ(stats.buffered_out_of_order, 1u);
  EXPECT_EQ(stats.deltas_applied, 0u);  // the buffered delta was dropped
}

}  // namespace
}  // namespace mwsec::sync
