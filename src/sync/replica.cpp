#include "sync/replica.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace mwsec::sync {

namespace {

/// Out-of-order deltas held while waiting for the gap to fill.
constexpr std::size_t kMaxBuffered = 256;

struct ReplicaMetrics {
  obs::Counter& deltas_applied;
  obs::Counter& duplicates_ignored;
  obs::Counter& snapshots_installed;
  obs::Counter& apply_errors;

  static ReplicaMetrics& get() {
    auto& r = obs::Registry::global();
    static ReplicaMetrics m{
        r.counter("sync.deltas_applied"),
        r.counter("sync.duplicates_ignored"),
        r.counter("sync.snapshots_installed"),
        r.counter("sync.apply_errors"),
    };
    return m;
  }
};

}  // namespace

Replica::Replica(net::Transport& network, const std::string& endpoint_name,
                 keynote::CompiledStore& store, Options options)
    : network_(network), endpoint_name_(endpoint_name), store_(store),
      options_(options) {
  auto ep = network_.open(endpoint_name);
  if (ep.ok()) {
    endpoint_ = std::move(ep).take();
  } else {
    MWSEC_LOG(kError, "sync") << "replica endpoint '" << endpoint_name
                              << "' failed to open: " << ep.error().message;
    endpoint_ = nullptr;
  }
}

Replica::~Replica() { stop(); }

mwsec::Status Replica::subscribe(const std::string& authority_endpoint) {
  if (endpoint_ != nullptr && endpoint_->closed()) {
    // Re-subscribing after stop(): the endpoint was closed to unblock the
    // serve thread. Re-register the name and open a fresh one — the old
    // registration is dropped first so the name is rebindable.
    network_.kill(endpoint_name_);
    endpoint_ = nullptr;
  }
  if (endpoint_ == nullptr) {
    auto ep = network_.open(endpoint_name_);
    if (!ep.ok()) {
      return Error::make("replica endpoint failed to open: " +
                             ep.error().message,
                         "sync");
    }
    endpoint_ = std::move(ep).take();
  }
  {
    std::scoped_lock lock(mu_);
    authority_ = authority_endpoint;
    // What the replica already holds: its store version. A fresh store is
    // at version 1 and an authority that has published nothing is too, so
    // the pair starts converged.
    applied_ = store_.version();
    SubscribeMessage sub;
    sub.have_epoch = applied_;
    // A lost subscribe is healed by the heartbeat acks below.
    endpoint_->send(authority_, kSubjectSubscribe, sub.encode()).ok();
    last_ack_ = std::chrono::steady_clock::now();
  }
  if (!thread_.joinable()) {
    thread_ = std::jthread([this](std::stop_token st) { serve(st); });
  }
  return {};
}

void Replica::stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    if (endpoint_) endpoint_->close();
    thread_.join();
  }
}

std::uint64_t Replica::epoch() const {
  std::scoped_lock lock(mu_);
  return applied_;
}

bool Replica::wait_for_epoch(std::uint64_t target,
                             std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, timeout, [&] { return applied_ >= target; });
}

Replica::Stats Replica::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

obs::TraceContext Replica::last_applied_context() const {
  std::scoped_lock lock(mu_);
  return last_applied_ctx_;
}

void Replica::apply_locked(const Delta& d) {
  // Continue the publish's causal tree (via the net hop when handle()
  // substituted the envelope context). The scoped ambient context tags
  // any log line emitted during the apply with the trace id.
  obs::Span span = obs::Tracer::global().join("sync.apply", d.ctx);
  if (span.active()) {
    span.set_attr("replica", endpoint_ != nullptr ? endpoint_->name() : "");
    span.set_attr("kind", delta_kind_name(d.kind));
    span.set_attr("epoch", std::to_string(d.epoch));
  }
  obs::ScopedTraceContext ambient(span.context());
  mwsec::Status status;
  switch (d.kind) {
    case DeltaKind::kAddPolicy:
      status = store_.add_policy_text(d.body);
      break;
    case DeltaKind::kAddCredential: {
      auto a = keynote::Assertion::parse(d.body);
      if (a.ok()) {
        status = store_.add_credential(std::move(a).take(),
                                       options_.verify_signatures);
      } else {
        status = a.error();
      }
      break;
    }
    // A revocation matching nothing locally is fine — a snapshot install
    // may already have removed it (idempotence, again).
    case DeltaKind::kRevokeMatching:
      store_.remove_matching(d.body);
      break;
    case DeltaKind::kRevokeByLicensee:
      store_.remove_by_licensee(d.body);
      break;
  }
  if (!status.ok()) {
    // Count and keep going: wedging the stream on one bad delta would
    // stall every later (good) one; anti-entropy restores exact parity.
    ++stats_.apply_errors;
    ReplicaMetrics::get().apply_errors.inc();
    span.set_status("error");
    MWSEC_LOG(kWarn, "sync")
        << "delta " << d.epoch << " (" << delta_kind_name(d.kind)
        << ") failed to apply: " << status.error().message;
  } else {
    span.set_status("applied");
  }
  // Track the authority's epoch exactly; every version-keyed decision
  // cache over this store invalidates here.
  store_.advance_version_to(d.epoch);
  applied_ = d.epoch;
  last_applied_ctx_ = span.context();
  ++stats_.deltas_applied;
  ReplicaMetrics::get().deltas_applied.inc();
  cv_.notify_all();
}

void Replica::drain_buffer_locked() {
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (it->first <= applied_) {
      it = buffer_.erase(it);  // superseded by a snapshot or duplicate
    } else if (it->first == applied_ + 1) {
      apply_locked(it->second);
      it = buffer_.erase(it);
    } else {
      break;  // gap still open
    }
  }
}

void Replica::send_ack_locked() {
  if (authority_.empty() || endpoint_ == nullptr) return;
  AckMessage ack;
  ack.epoch = applied_;
  endpoint_->send(authority_, kSubjectAck, ack.encode()).ok();
  last_ack_ = std::chrono::steady_clock::now();
  ++stats_.acks_sent;
}

void Replica::handle(const net::Message& m) {
  std::scoped_lock lock(mu_);
  if (m.subject == kSubjectDelta) {
    auto decoded = DeltaBatch::decode(m.payload);
    if (!decoded.ok()) return;
    DeltaBatch batch = std::move(decoded).take();
    for (auto& d : batch.deltas) {
      // Prefer the envelope context (the net hop that actually delivered
      // this copy) as the apply's parent — but only when it belongs to
      // the same trace as the delta's origin, which a mixed retransmit
      // batch need not. The substitution survives buffering, so a
      // gap-filling apply still hangs off its own delivery hop.
      if (m.ctx.valid() && m.ctx.trace_id == d.ctx.trace_id) d.ctx = m.ctx;
      if (d.epoch <= applied_) {
        ++stats_.duplicates_ignored;
        ReplicaMetrics::get().duplicates_ignored.inc();
      } else if (d.epoch == applied_ + 1) {
        apply_locked(d);
        drain_buffer_locked();
      } else if (buffer_.size() < kMaxBuffered) {
        // Out of order: hold it until the gap fills (or a snapshot
        // supersedes it). The cumulative ack below tells the authority
        // where the gap starts, and its retransmit loop closes it.
        auto [it, inserted] = buffer_.try_emplace(d.epoch, std::move(d));
        (void)it;
        if (inserted) {
          ++stats_.buffered_out_of_order;
          ++stats_.gaps_detected;
        } else {
          ++stats_.duplicates_ignored;
          ReplicaMetrics::get().duplicates_ignored.inc();
        }
      }
    }
    send_ack_locked();
  } else if (m.subject == kSubjectSnapshot) {
    auto snap = SnapshotMessage::decode(m.payload);
    if (!snap.ok()) return;
    if (snap->epoch > applied_) {
      obs::Span span =
          obs::Tracer::global().join("sync.snapshot_install", m.ctx);
      if (span.active()) {
        span.set_attr("replica",
                      endpoint_ != nullptr ? endpoint_->name() : "");
        span.set_attr("epoch", std::to_string(snap->epoch));
      }
      auto s = store_.install_bundle(snap->bundle, snap->epoch,
                                     options_.verify_signatures);
      if (s.ok()) {
        span.set_status("installed");
        applied_ = snap->epoch;
        last_applied_ctx_ = span.context();
        ++stats_.snapshots_installed;
        ReplicaMetrics::get().snapshots_installed.inc();
        cv_.notify_all();
        drain_buffer_locked();
      } else {
        span.set_status("error");
        ++stats_.apply_errors;
        ReplicaMetrics::get().apply_errors.inc();
        MWSEC_LOG(kWarn, "sync") << "snapshot at epoch " << snap->epoch
                                 << " failed to install: "
                                 << s.error().message;
      }
    } else {
      ++stats_.duplicates_ignored;
      ReplicaMetrics::get().duplicates_ignored.inc();
    }
    send_ack_locked();
  }
}

void Replica::serve(std::stop_token st) {
  while (!st.stop_requested()) {
    auto message = endpoint_->receive(options_.poll_interval);
    if (endpoint_->closed()) return;
    if (message.has_value()) handle(*message);
    std::scoped_lock lock(mu_);
    if (std::chrono::steady_clock::now() - last_ack_ >=
        options_.heartbeat_interval) {
      send_ack_locked();
    }
  }
}

}  // namespace mwsec::sync
