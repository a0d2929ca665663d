// The publishing side of live policy synchronisation (Figures 7–8: the
// administration point — the WebCom master's trust root or a KeyCOM
// service — from which delegation and revocation propagate).
//
// An `Authority` fronts a `keynote::CompiledStore`: mutations go through
// the publish/revoke methods, which apply them to the store, append an
// epoch-numbered `Delta` (epoch = store version after the mutation) to a
// bounded log, and broadcast it to every subscribed replica. Reliability
// is ack/retransmit: replicas send cumulative acks, and the serve loop
// retransmits the unacked log suffix after `retransmit_interval`. A
// replica too far behind — log trimmed, partition, rejoin — is served a
// full snapshot instead (anti-entropy), which also covers store mutations
// made *around* the authority (e.g. a scheduler admitting attach-time
// credentials directly): those bump the version without a log entry, and
// the resulting un-bridgeable gap degrades to a snapshot, not a stall.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "keynote/compiled_store.hpp"
#include "net/transport.hpp"
#include "sync/protocol.hpp"

namespace mwsec::sync {

struct AuthorityOptions {
  std::chrono::milliseconds poll_interval{10};
  /// Unacked deltas are retransmitted after this much silence per replica.
  std::chrono::milliseconds retransmit_interval{40};
  /// A replica behind by more than this many epochs is caught up with a
  /// snapshot; the log keeps only this many entries.
  std::uint64_t snapshot_lag = 128;
  /// Verify credential signatures at publish admission. An authority
  /// that *mints* what it publishes (e.g. the load harness's admin point
  /// synthesising millions of unsigned principals) may turn this off;
  /// replicas should then run with verify_signatures = false too.
  bool verify_admissions = true;
};

class Authority {
 public:
  using Options = AuthorityOptions;

  /// `store` is the replicated credential store; it must outlive the
  /// authority. Mutations made through this class are published; direct
  /// store mutations propagate only via anti-entropy snapshots.
  Authority(net::Transport& network, const std::string& endpoint_name,
            keynote::CompiledStore& store, Options options = {});
  ~Authority();
  Authority(const Authority&) = delete;
  Authority& operator=(const Authority&) = delete;

  /// Start serving subscribes/acks and retransmitting on a background
  /// thread.
  mwsec::Status start();
  void stop();

  keynote::CompiledStore& store() { return store_; }
  /// The current epoch: the store's version.
  std::uint64_t epoch() const { return store_.version(); }

  // Publishing mutators. Each successful store mutation becomes exactly
  // one delta; mutations that do not move the store (duplicate credential,
  // revocation matching nothing) publish nothing.
  mwsec::Status publish_policy_text(std::string_view text);
  mwsec::Status publish_credential(keynote::Assertion assertion);
  std::size_t revoke_matching(const std::string& text);
  std::size_t revoke_by_licensee(const std::string& principal);

  struct Stats {
    std::uint64_t deltas_published = 0;
    std::uint64_t deltas_sent = 0;  ///< individual deltas, incl. resends
    std::uint64_t retransmits = 0;  ///< batches sent beyond the broadcast
    std::uint64_t snapshots_served = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t subscribes = 0;
  };
  Stats stats() const;

  std::size_t replica_count() const;
  /// Largest epoch gap between the store and any replica's cumulative ack
  /// (0 when fully converged or no replicas).
  std::uint64_t replica_lag() const;

 private:
  struct ReplicaState {
    std::uint64_t acked = 0;
    std::chrono::steady_clock::time_point last_send{};
  };

  void serve(std::stop_token st);
  void handle(const net::Message& m);
  /// Append + broadcast the delta for a store mutation just made, at the
  /// store's new version. Caller holds mu_.
  void publish_locked(DeltaKind kind, std::string body);
  /// Bring `replica` up to date: replay the log suffix when it bridges
  /// the gap, else serve a snapshot. Caller holds mu_. `retransmission`
  /// marks sends beyond the initial broadcast for the stats.
  void send_missing_locked(const std::string& replica, ReplicaState& state,
                           bool retransmission);

  net::Transport& network_;
  std::shared_ptr<net::Endpoint> endpoint_;
  keynote::CompiledStore& store_;
  Options options_;
  std::jthread thread_;

  mutable std::mutex mu_;
  std::deque<Delta> log_;  ///< ascending epochs; may have holes
  std::map<std::string, ReplicaState> replicas_;
  Stats stats_;
};

}  // namespace mwsec::sync
