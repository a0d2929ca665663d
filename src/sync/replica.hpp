// The subscribing side of live policy synchronisation: keeps a local
// `keynote::CompiledStore` — the WebCom master's trust root, a client's, a
// middleware catalogue front — converged with an authority's.
//
// Deltas apply strictly in epoch order. A delta at or below the applied
// epoch is a duplicate and is skipped (idempotence under the network's
// duplicate-delivery fault injection); one past the next epoch is buffered
// until the gap fills (reordering) or anti-entropy bridges it. After each
// applied delta the store's version is advanced to the delta epoch, so
// every decision cache keyed on the version — `authz::CachingAuthorizer`
// in front of the scheduler, most importantly — invalidates exactly when
// replicated policy changes, and a cached allow-verdict for a revoked
// principal dies mid-run without any re-attach.
//
// Liveness under loss and partition: the replica acks cumulatively after
// every applied message and heartbeats the same ack when idle; the
// authority retransmits or serves a snapshot for anything unacked. A lost
// subscribe is healed the same way (acks double as subscribes).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "keynote/compiled_store.hpp"
#include "net/transport.hpp"
#include "sync/protocol.hpp"

namespace mwsec::sync {

struct ReplicaOptions {
  std::chrono::milliseconds poll_interval{10};
  /// Idle-heartbeat spacing: an ack of the applied epoch is sent at
  /// least this often, keeping the authority's retransmit loop fed.
  std::chrono::milliseconds heartbeat_interval{40};
  /// Replicas verify replicated credential signatures by default
  /// (credentials are self-certifying); an authenticated channel from
  /// an authority that verified at admission may turn this off.
  bool verify_signatures = true;
};

class Replica {
 public:
  using Options = ReplicaOptions;

  /// `store` must outlive the replica. The replica mutates it from its
  /// serve thread; CompiledStore is internally synchronised, so readers
  /// (schedulers, authorisers) need no extra locking.
  Replica(net::Transport& network, const std::string& endpoint_name,
          keynote::CompiledStore& store, Options options = {});
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Send the subscribe and start applying deltas on a background thread.
  /// May be called again after stop() (a *flapped* replica rejoining):
  /// the endpoint is reopened and catch-up proceeds from the store's
  /// version — the authority replays the missed suffix or serves a
  /// snapshot, exactly as for a late joiner.
  mwsec::Status subscribe(const std::string& authority_endpoint);
  void stop();

  keynote::CompiledStore& store() { return store_; }

  /// Last authority epoch applied (0 until the first delta or snapshot).
  std::uint64_t epoch() const;

  /// Test/benchmark convenience: block until `target` (or newer) has been
  /// applied. False on timeout.
  bool wait_for_epoch(std::uint64_t target,
                      std::chrono::milliseconds timeout) const;

  /// Context of the most recent "sync.apply"/"sync.snapshot_install" span
  /// (invalid when tracing was off for it). A version-keyed cache that
  /// flushes because this replica moved the store epoch joins its
  /// verdict-flip span here — completing the causal chain revocation →
  /// net → apply → flip (see authz::CachingAuthorizer::set_epoch_provenance).
  obs::TraceContext last_applied_context() const;

  struct Stats {
    std::uint64_t deltas_applied = 0;
    std::uint64_t duplicates_ignored = 0;
    std::uint64_t buffered_out_of_order = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t snapshots_installed = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t apply_errors = 0;
  };
  Stats stats() const;

 private:
  void serve(std::stop_token st);
  void handle(const net::Message& m);
  /// Apply one in-sequence delta to the store. Caller holds mu_.
  void apply_locked(const Delta& d);
  /// Apply everything contiguous from the buffer. Caller holds mu_.
  void drain_buffer_locked();
  void send_ack_locked();

  net::Transport& network_;
  std::string endpoint_name_;
  std::shared_ptr<net::Endpoint> endpoint_;
  keynote::CompiledStore& store_;
  Options options_;
  std::string authority_;
  std::jthread thread_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  ///< signalled when applied_ advances
  std::uint64_t applied_ = 0;
  obs::TraceContext last_applied_ctx_;
  std::map<std::uint64_t, Delta> buffer_;  ///< out-of-order deltas by epoch
  std::chrono::steady_clock::time_point last_ack_{};
  Stats stats_;
};

}  // namespace mwsec::sync
