#include "sync/authority.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace mwsec::sync {

namespace {

/// Process-wide replication counters (ISSUE: deltas applied / snapshots
/// served / replica lag / retransmits). The replica side records its own
/// half in replica.cpp.
struct AuthorityMetrics {
  obs::Counter& deltas_published;
  obs::Counter& deltas_sent;
  obs::Counter& retransmits;
  obs::Counter& snapshots_served;
  obs::Counter& acks_received;
  obs::Gauge& replica_lag;

  static AuthorityMetrics& get() {
    auto& r = obs::Registry::global();
    static AuthorityMetrics m{
        r.counter("sync.deltas_published"),
        r.counter("sync.deltas_sent"),
        r.counter("sync.retransmits"),
        r.counter("sync.snapshots_served"),
        r.counter("sync.acks_received"),
        r.gauge("sync.replica_lag"),
    };
    return m;
  }
};

}  // namespace

Authority::Authority(net::Transport& network, const std::string& endpoint_name,
                     keynote::CompiledStore& store, Options options)
    : network_(network), store_(store), options_(options) {
  auto ep = network_.open(endpoint_name);
  if (ep.ok()) {
    endpoint_ = std::move(ep).take();
  } else {
    MWSEC_LOG(kError, "sync") << "authority endpoint '" << endpoint_name
                              << "' failed to open: " << ep.error().message;
    endpoint_ = nullptr;
  }
}

Authority::~Authority() { stop(); }

mwsec::Status Authority::start() {
  if (endpoint_ == nullptr) {
    return Error::make("authority endpoint failed to open", "sync");
  }
  if (thread_.joinable()) return {};
  thread_ = std::jthread([this](std::stop_token st) { serve(st); });
  return {};
}

void Authority::stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    if (endpoint_) endpoint_->close();
    thread_.join();
  }
}

void Authority::publish_locked(DeltaKind kind, std::string body) {
  Delta d{store_.version(), kind, std::move(body), {}};
  auto& metrics = AuthorityMetrics::get();
  ++stats_.deltas_published;
  metrics.deltas_published.inc();
  // The publish span roots (or, under an ambient context such as KeyCOM's
  // apply, continues) the delta's causal tree; its context is stamped
  // into the delta itself so retransmits and log replays keep pointing at
  // this one publish. The span covers the initial broadcast fan-out.
  obs::Span span = obs::Tracer::global().start("sync.publish");
  if (span.active()) {
    span.set_attr("kind", delta_kind_name(d.kind));
    span.set_attr("epoch", std::to_string(d.epoch));
    span.set_status("published");
    d.ctx = span.context();
  }
  DeltaBatch batch;
  batch.deltas.push_back(d);
  log_.push_back(std::move(d));
  // send_missing_locked replays at most snapshot_lag entries, always the
  // newest ones, so anything older is never read.
  while (log_.size() > options_.snapshot_lag) log_.pop_front();
  if (endpoint_ == nullptr) return;
  auto payload = batch.encode();
  auto now = std::chrono::steady_clock::now();
  for (auto& [name, state] : replicas_) {
    endpoint_->send(name, kSubjectDelta, payload, batch.deltas.front().ctx)
        .ok();  // loss → retransmit
    state.last_send = now;
    ++stats_.deltas_sent;
    metrics.deltas_sent.inc();
  }
}

mwsec::Status Authority::publish_policy_text(std::string_view text) {
  auto bundle = keynote::Assertion::parse_bundle(text);
  if (!bundle.ok()) return bundle.error();
  std::scoped_lock lock(mu_);
  for (auto& a : *bundle) {
    const std::string body = a.to_text();
    const auto before = store_.version();
    if (auto s = store_.add_policy(std::move(a)); !s.ok()) return s;
    if (store_.version() == before) continue;
    publish_locked(DeltaKind::kAddPolicy, body);
  }
  return {};
}

mwsec::Status Authority::publish_credential(keynote::Assertion assertion) {
  std::scoped_lock lock(mu_);
  const std::string body = assertion.to_text();
  const auto before = store_.version();
  if (auto s = store_.add_credential(std::move(assertion),
                                     options_.verify_admissions);
      !s.ok()) {
    return s;
  }
  // Idempotent re-add: the store did not move, so there is nothing to say.
  if (store_.version() == before) return {};
  publish_locked(DeltaKind::kAddCredential, body);
  return {};
}

std::size_t Authority::revoke_matching(const std::string& text) {
  std::scoped_lock lock(mu_);
  auto removed = store_.remove_matching(text);
  if (removed != 0) {
    publish_locked(DeltaKind::kRevokeMatching, text);
  }
  return removed;
}

std::size_t Authority::revoke_by_licensee(const std::string& principal) {
  std::scoped_lock lock(mu_);
  auto removed = store_.remove_by_licensee(principal);
  if (removed != 0) {
    publish_locked(DeltaKind::kRevokeByLicensee, principal);
  }
  return removed;
}

void Authority::send_missing_locked(const std::string& replica,
                                    ReplicaState& state, bool retransmission) {
  const std::uint64_t current = store_.version();
  if (state.acked >= current || endpoint_ == nullptr) return;
  auto& metrics = AuthorityMetrics::get();
  state.last_send = std::chrono::steady_clock::now();

  // The log bridges the gap only if it holds every epoch in
  // (acked, current] — holes (trimmed entries, unpublished direct store
  // mutations) or a gap beyond snapshot_lag degrade to a snapshot.
  const std::uint64_t gap = current - state.acked;
  bool replayable = gap <= options_.snapshot_lag;
  if (replayable) {
    auto first = std::find_if(log_.begin(), log_.end(), [&](const Delta& d) {
      return d.epoch > state.acked;
    });
    std::uint64_t expected = state.acked + 1;
    for (auto it = first; replayable && expected <= current; ++it, ++expected) {
      if (it == log_.end() || it->epoch != expected) replayable = false;
    }
    if (replayable) {
      DeltaBatch batch;
      batch.deltas.assign(first, first + static_cast<std::ptrdiff_t>(gap));
      // The envelope carries the oldest resent delta's origin context;
      // each delta also carries its own, so the replica attributes every
      // apply to the right publish even in a mixed batch.
      endpoint_->send(replica, kSubjectDelta, batch.encode(),
                      batch.deltas.front().ctx)
          .ok();
      stats_.deltas_sent += gap;
      metrics.deltas_sent.inc(gap);
      if (retransmission) {
        ++stats_.retransmits;
        metrics.retransmits.inc();
      }
      return;
    }
  }

  SnapshotMessage snap;
  snap.epoch = current;
  snap.bundle = store_.to_bundle_text();
  endpoint_->send(replica, kSubjectSnapshot, snap.encode()).ok();
  ++stats_.snapshots_served;
  metrics.snapshots_served.inc();
}

void Authority::handle(const net::Message& m) {
  std::scoped_lock lock(mu_);
  if (m.subject == kSubjectSubscribe) {
    auto sub = SubscribeMessage::decode(m.payload);
    if (!sub.ok()) return;
    ++stats_.subscribes;
    replicas_[m.from] = ReplicaState{sub->have_epoch, {}};
    send_missing_locked(m.from, replicas_[m.from], /*retransmission=*/false);
  } else if (m.subject == kSubjectAck) {
    auto ack = AckMessage::decode(m.payload);
    if (!ack.ok()) return;
    ++stats_.acks_received;
    AuthorityMetrics::get().acks_received.inc();
    auto [it, inserted] = replicas_.try_emplace(m.from);
    // An ack from an unknown sender is an implicit (re-)subscribe: the
    // original subscribe may have been lost, and heartbeat acks must be
    // enough to pull a partitioned-then-healed replica back in.
    it->second.acked = std::max(it->second.acked, ack->epoch);
    if (inserted) {
      send_missing_locked(m.from, it->second, /*retransmission=*/false);
    }
  }
}

void Authority::serve(std::stop_token st) {
  while (!st.stop_requested()) {
    auto message = endpoint_->receive(options_.poll_interval);
    if (endpoint_->closed()) return;
    if (message.has_value()) handle(*message);

    std::scoped_lock lock(mu_);
    const std::uint64_t current = store_.version();
    const auto now = std::chrono::steady_clock::now();
    std::uint64_t max_lag = 0;
    for (auto& [name, state] : replicas_) {
      if (state.acked < current) {
        max_lag = std::max(max_lag, current - state.acked);
        if (now - state.last_send >= options_.retransmit_interval) {
          send_missing_locked(name, state, /*retransmission=*/true);
        }
      }
    }
    AuthorityMetrics::get().replica_lag.set(
        static_cast<std::int64_t>(max_lag));
  }
}

Authority::Stats Authority::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

std::size_t Authority::replica_count() const {
  std::scoped_lock lock(mu_);
  return replicas_.size();
}

std::uint64_t Authority::replica_lag() const {
  std::scoped_lock lock(mu_);
  const std::uint64_t current = store_.version();
  std::uint64_t max_lag = 0;
  for (const auto& [name, state] : replicas_) {
    if (state.acked < current) max_lag = std::max(max_lag, current - state.acked);
  }
  return max_lag;
}

}  // namespace mwsec::sync
