// Wire formats for the policy replication protocol (paper §4, Figures 7–8:
// delegation and revocation propagating from the administration point down
// to middleware catalogues and running WebCom nodes).
//
// An authority publishes epoch-numbered deltas against its
// `keynote::CompiledStore`; the epoch of a delta is the store's version()
// after the mutation, so replicas that apply every delta in order track
// the authority's version exactly — and every consumer keyed on the store
// version (the `authz::CachingAuthorizer` decision caches in particular)
// invalidates the moment a delta lands.
//
// Reliability model: deltas are fire-and-forget; replicas send cumulative
// acks (doubling as heartbeats, so a lost subscribe self-heals) and the
// authority retransmits the unacked suffix of its log. A replica that has
// fallen behind the log — trimmed entries, a partition, a rejoin — is
// caught up with a full `SnapshotMessage` instead (anti-entropy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/byte_buffer.hpp"
#include "util/result.hpp"

namespace mwsec::sync {

inline constexpr const char* kSubjectSubscribe = "sync-subscribe";
inline constexpr const char* kSubjectDelta = "sync-delta";
inline constexpr const char* kSubjectAck = "sync-ack";
inline constexpr const char* kSubjectSnapshot = "sync-snapshot";

/// What one delta does to the replicated credential store.
enum class DeltaKind : std::uint8_t {
  kAddPolicy = 0,          ///< body: one POLICY assertion text
  kAddCredential = 1,      ///< body: one signed credential text
  kRevokeMatching = 2,     ///< body: exact credential text to withdraw
  // 3 is unassigned: decode rejects it like any other unknown kind.
  kRevokeByLicensee = 4,   ///< body: principal whose received grants go
};

const char* delta_kind_name(DeltaKind kind);

/// One epoch-numbered store mutation. Exactly one store mutation per
/// delta, so applying it bumps the replica's version by one and
/// `advance_version_to(epoch)` is a no-op in the steady state.
struct Delta {
  std::uint64_t epoch = 0;
  DeltaKind kind = DeltaKind::kAddPolicy;
  std::string body;
  /// Causal origin: the publish span that created the delta. Carried in
  /// the frame (16 bytes after the body) so a retransmitted or
  /// log-replayed delta keeps its original trace identity — the fan-out
  /// tree stays rooted at the one revocation no matter which send
  /// attempt finally lands. Zero when tracing was off at publish.
  obs::TraceContext ctx;
};

/// A run of deltas, ascending by epoch (a broadcast carries one; a
/// retransmission carries the whole unacked suffix).
struct DeltaBatch {
  std::vector<Delta> deltas;

  util::Bytes encode() const;
  static mwsec::Result<DeltaBatch> decode(const util::Bytes& payload);
};

/// Replica -> authority: start replicating; `have_epoch` is what the
/// replica already holds (0/1 for a fresh store).
struct SubscribeMessage {
  std::uint64_t have_epoch = 0;

  util::Bytes encode() const;
  static mwsec::Result<SubscribeMessage> decode(const util::Bytes& payload);
};

/// Replica -> authority: cumulative ack — every epoch <= `epoch` has been
/// applied. Sent after each applied message and periodically as a
/// heartbeat; an ack from an unknown sender is an implicit subscribe.
struct AckMessage {
  std::uint64_t epoch = 0;

  util::Bytes encode() const;
  static mwsec::Result<AckMessage> decode(const util::Bytes& payload);
};

/// Authority -> replica: full store contents at `epoch` (anti-entropy
/// catch-up when the delta log cannot bridge the replica's gap).
struct SnapshotMessage {
  std::uint64_t epoch = 0;
  std::string bundle;  ///< CompiledStore::to_bundle_text()

  util::Bytes encode() const;
  static mwsec::Result<SnapshotMessage> decode(const util::Bytes& payload);
};

}  // namespace mwsec::sync
