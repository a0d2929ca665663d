// Wire-format tests for the replication protocol: round-trips, rejection
// of malformed payloads (bad delta kind, trailing bytes, truncation).
#include "sync/protocol.hpp"

#include <gtest/gtest.h>

namespace mwsec::sync {
namespace {

TEST(SyncProtocol, DeltaBatchRoundTrips) {
  DeltaBatch batch;
  batch.deltas.push_back(
      {7, DeltaKind::kAddPolicy, "Authorizer: POLICY\n", {}});
  batch.deltas.push_back({8, DeltaKind::kAddCredential, "cred text", {}});
  batch.deltas.push_back({9, DeltaKind::kRevokeByLicensee, "rsa-hex:ab", {}});
  auto decoded = DeltaBatch::decode(batch.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  ASSERT_EQ(decoded->deltas.size(), 3u);
  EXPECT_EQ(decoded->deltas[0].epoch, 7u);
  EXPECT_EQ(decoded->deltas[0].kind, DeltaKind::kAddPolicy);
  EXPECT_EQ(decoded->deltas[0].body, "Authorizer: POLICY\n");
  EXPECT_EQ(decoded->deltas[2].kind, DeltaKind::kRevokeByLicensee);
  EXPECT_EQ(decoded->deltas[2].body, "rsa-hex:ab");
}

TEST(SyncProtocol, EmptyBatchRoundTrips) {
  DeltaBatch batch;
  auto decoded = DeltaBatch::decode(batch.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->deltas.empty());
}

TEST(SyncProtocol, UnknownDeltaKindRejected) {
  // 3 sits between assigned kinds but is not one of them.
  for (std::uint8_t kind : {std::uint8_t{3}, std::uint8_t{200}}) {
    DeltaBatch batch;
    batch.deltas.push_back({1, static_cast<DeltaKind>(kind), "x", {}});
    auto decoded = DeltaBatch::decode(batch.encode());
    ASSERT_FALSE(decoded.ok()) << "kind " << int{kind};
    EXPECT_EQ(decoded.error().code, "wire");
  }
}

TEST(SyncProtocol, TrailingBytesRejected) {
  DeltaBatch batch;
  batch.deltas.push_back({1, DeltaKind::kAddPolicy, "p", {}});
  auto payload = batch.encode();
  payload.push_back(0);
  EXPECT_FALSE(DeltaBatch::decode(payload).ok());

  SubscribeMessage sub;
  auto sub_payload = sub.encode();
  sub_payload.push_back(0);
  EXPECT_FALSE(SubscribeMessage::decode(sub_payload).ok());
}

TEST(SyncProtocol, TruncatedBatchRejected) {
  DeltaBatch batch;
  batch.deltas.push_back({1, DeltaKind::kAddPolicy, "some body", {}});
  auto payload = batch.encode();
  payload.resize(payload.size() - 4);
  EXPECT_FALSE(DeltaBatch::decode(payload).ok());
}

TEST(SyncProtocol, SubscribeAckSnapshotRoundTrip) {
  SubscribeMessage sub;
  sub.have_epoch = 42;
  auto sub2 = SubscribeMessage::decode(sub.encode());
  ASSERT_TRUE(sub2.ok());
  EXPECT_EQ(sub2->have_epoch, 42u);

  AckMessage ack;
  ack.epoch = 17;
  auto ack2 = AckMessage::decode(ack.encode());
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2->epoch, 17u);

  SnapshotMessage snap;
  snap.epoch = 99;
  snap.bundle = "Authorizer: POLICY\nLicensees: \"K\"\n";
  auto snap2 = SnapshotMessage::decode(snap.encode());
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ(snap2->epoch, 99u);
  EXPECT_EQ(snap2->bundle, snap.bundle);
}

TEST(SyncProtocol, DeltaTraceContextSurvivesTheWire) {
  // The causal origin travels in the frame (16 bytes after the body), so
  // a retransmitted delta keeps the publish span that created it. Deltas
  // published with tracing off carry the zero context, also verbatim.
  DeltaBatch batch;
  batch.deltas.push_back({7, DeltaKind::kRevokeByLicensee, "KFred",
                          obs::TraceContext{0xfeedbeef, 0x1234}});
  batch.deltas.push_back({8, DeltaKind::kAddPolicy, "p", {}});  // zero ctx
  auto decoded = DeltaBatch::decode(batch.encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->deltas.size(), 2u);
  EXPECT_EQ(decoded->deltas[0].ctx.trace_id, 0xfeedbeefu);
  EXPECT_EQ(decoded->deltas[0].ctx.span_id, 0x1234u);
  EXPECT_TRUE(decoded->deltas[0].ctx.valid());
  EXPECT_EQ(decoded->deltas[1].ctx.trace_id, 0u);
  EXPECT_EQ(decoded->deltas[1].ctx.span_id, 0u);
  EXPECT_FALSE(decoded->deltas[1].ctx.valid());
}

TEST(SyncProtocol, DeltaKindNamesAreStable) {
  EXPECT_STREQ(delta_kind_name(DeltaKind::kAddPolicy), "add-policy");
  EXPECT_STREQ(delta_kind_name(DeltaKind::kRevokeByLicensee),
               "revoke-by-licensee");
}

}  // namespace
}  // namespace mwsec::sync
