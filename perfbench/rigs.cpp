#include "rigs.hpp"

#include <chrono>
#include <vector>

#include "crypto/keys.hpp"
#include "net/network.hpp"
#include "sync/authority.hpp"
#include "sync/replica.hpp"
#include "webcom/graph.hpp"
#include "webcom/scheduler.hpp"

namespace perfbench {

namespace {

using mwsec::Error;
using mwsec::Status;
using mwsec::authz::Request;
using mwsec::keynote::Assertion;

constexpr std::chrono::milliseconds kSettleTimeout{10'000};
/// The version install_bundle gives a fresh store.
constexpr std::uint64_t kInstallVersion = 2;

Tracer& disabled_tracer() {
  static Tracer t(false);
  return t;
}

void add(Counts& c, const mwsec::authz::CachingAuthorizer::Stats& s) {
  c.cache_hits += s.hits;
  c.cache_misses += s.misses;
  c.cache_flushes += s.invalidations;
}

void add(Counts& c, const mwsec::net::Transport::Stats& s) {
  c.messages += s.sent;
  c.bytes += s.bytes;
  c.undeliverable += s.undeliverable;
}

// --------------------------------------------------------------------------

class DirectRig final : public Rig {
 public:
  Status finish_setup(mwsec::load::SessionBridge&,
                      const mwsec::load::Population&) override {
    bulk_ = false;
    if (auto s = point_.store.install_bundle(bundle_, kInstallVersion,
                                             /*verify_signatures=*/false);
        !s.ok()) {
      return s;
    }
    bundle_.clear();
    return settle();
  }

  std::size_t points() const override { return 1; }

  bool decide(std::size_t, const Op&, const Request& request) override {
    auto span = tracer_->span(SpanName::kAuthzDecide);
    return point_.cache.decide(request).permitted();
  }

  Status settle() override {
    rebuild(point_);
    return {};
  }

  Counts counts() const override {
    Counts c;
    add(c, point_.cache.stats());
    c.rebuilds = rebuilds_;
    return c;
  }

  std::uint64_t backend_queries() const override {
    return point_.timed.queries();
  }

  std::size_t live_credentials() const override {
    return point_.store.credential_count();
  }

  std::size_t revoke_matching(const std::string& text) override {
    auto span = tracer_->span(SpanName::kKeynoteRemove);
    return point_.store.remove_matching(text);
  }

  std::size_t revoke_by_licensee(const std::string& principal) override {
    auto span = tracer_->span(SpanName::kKeynoteRemoveLicensee);
    return point_.store.remove_by_licensee(principal);
  }

 protected:
  Status write_policy(const std::string& text) override {
    return point_.store.add_policy_text(text);
  }

  Status write_credential(Assertion credential) override {
    auto span = tracer_->span(SpanName::kKeynoteAdmit);
    return point_.store.add_credential(std::move(credential),
                                       /*verify_signature=*/false);
  }

 private:
  DecisionPoint point_{tracer_};
};

// --------------------------------------------------------------------------

constexpr const char* kAuthority = "pb.authority";
constexpr std::size_t kReplicas = 2;

class FanoutRig final : public Rig {
 public:
  explicit FanoutRig(std::uint64_t seed) : bus_(bus_options(seed)) {}

  Status finish_setup(mwsec::load::SessionBridge&,
                      const mwsec::load::Population&) override {
    bulk_ = false;
    if (auto s = authority_store_.install_bundle(bundle_, kInstallVersion,
                                                 /*verify_signatures=*/false);
        !s.ok()) {
      return s;
    }
    bundle_.clear();
    if (auto s = authority_.start(); !s.ok()) return s;
    mwsec::sync::ReplicaOptions ropts;
    // The authority admits the benchmark's unsigned synthetic credentials
    // without verification; replicas trust it the same way.
    ropts.verify_signatures = false;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      auto node = std::make_unique<Node>(tracer_);
      node->replica = std::make_unique<mwsec::sync::Replica>(
          bus_, "pb.replica" + std::to_string(r), node->point.store, ropts);
      if (auto s = node->replica->subscribe(kAuthority); !s.ok()) return s;
      nodes_.push_back(std::move(node));
    }
    return settle();  // each replica catches up by snapshot
  }

  std::size_t points() const override { return nodes_.size(); }

  std::size_t route(const Request& request) const override {
    std::uint64_t h = kFnvOffset;
    for (unsigned char c : request.principal) {
      h = (h ^ c) * 0x100000001b3ull;
    }
    return h % nodes_.size();
  }

  bool decide(std::size_t point, const Op&, const Request& request) override {
    auto span = tracer_->span(SpanName::kAuthzDecide);
    return nodes_[point]->point.cache.decide(request).permitted();
  }

  Status settle() override {
    const std::uint64_t target = authority_store_.version();
    {
      auto span = tracer_->span(SpanName::kSyncConverge);
      for (std::size_t r = 0; r < nodes_.size(); ++r) {
        if (!nodes_[r]->replica->wait_for_epoch(target, kSettleTimeout)) {
          return Error::make("replica " + std::to_string(r) +
                                 " did not reach epoch " +
                                 std::to_string(target),
                             "perfbench");
        }
      }
    }
    for (auto& node : nodes_) rebuild(node->point);
    return {};
  }

  Counts counts() const override {
    Counts c;
    for (const auto& node : nodes_) {
      add(c, node->point.cache.stats());
      c.apply_errors += node->replica->stats().apply_errors;
    }
    const auto a = authority_.stats();
    c.deltas_published = a.deltas_published;
    c.retransmits = a.retransmits;
    c.snapshots_served = a.snapshots_served;
    add(c, bus_.stats());
    c.rebuilds = rebuilds_;
    return c;
  }

  std::uint64_t backend_queries() const override {
    std::uint64_t q = 0;
    for (const auto& node : nodes_) q += node->point.timed.queries();
    return q;
  }

  std::size_t live_credentials() const override {
    return authority_store_.credential_count();
  }

  std::size_t revoke_matching(const std::string& text) override {
    auto span = tracer_->span(SpanName::kSyncPublish);
    return authority_.revoke_matching(text);
  }

  std::size_t revoke_by_licensee(const std::string& principal) override {
    auto span = tracer_->span(SpanName::kSyncPublish);
    return authority_.revoke_by_licensee(principal);
  }

 protected:
  Status write_policy(const std::string& text) override {
    return authority_.publish_policy_text(text);
  }

  Status write_credential(Assertion credential) override {
    auto span = tracer_->span(SpanName::kSyncPublish);
    return authority_.publish_credential(std::move(credential));
  }

 private:
  struct Node {
    explicit Node(Tracer* const& tracer) : point(tracer) {}
    DecisionPoint point;
    /// Declared after the store it applies to, so it stops first.
    std::unique_ptr<mwsec::sync::Replica> replica;
  };

  static mwsec::net::Transport::Options bus_options(std::uint64_t seed) {
    mwsec::net::Transport::Options o;
    o.seed = seed;
    return o;
  }

  static mwsec::sync::AuthorityOptions authority_options() {
    mwsec::sync::AuthorityOptions o;
    o.verify_admissions = false;
    // The bus is lossless; retransmit only when a replica is really
    // stuck, not while it applies an O(store) delta.
    o.retransmit_interval = std::chrono::milliseconds(200);
    return o;
  }

  mwsec::net::Network bus_;
  mwsec::keynote::CompiledStore authority_store_;
  mwsec::sync::Authority authority_{bus_, kAuthority, authority_store_,
                                    authority_options()};
  std::vector<std::unique_ptr<Node>> nodes_;
};

// --------------------------------------------------------------------------

class WebcomRig final : public Rig {
 public:
  explicit WebcomRig(std::uint64_t seed) : ring_(seed, /*modulus_bits=*/256) {}

  ~WebcomRig() override {
    // Drop the master before the clients it schedules to.
    master_.reset();
  }

  Status finish_setup(mwsec::load::SessionBridge& bridge,
                      const mwsec::load::Population& pop) override {
    bulk_ = false;
    if (auto s = master_->store().install_bundle(
            bundle_, kInstallVersion, /*verify_signatures=*/false);
        !s.ok()) {
      return s;
    }
    bundle_.clear();
    const auto& master_principal = master_identity_.principal();
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const auto instance = pop.entitlements(i).front();
      mwsec::webcom::ClientOptions copts;
      copts.security_enabled = true;
      copts.domain = instance.domain;
      copts.role = instance.role;
      copts.user = pop.user(i);
      const std::string endpoint = "pb.client" + std::to_string(i);
      auto client = std::make_unique<mwsec::webcom::Client>(
          bus_, endpoint, ring_.identity("Kclient" + std::to_string(i)),
          mwsec::webcom::OperationRegistry::with_builtins(), copts);
      // As bench_fig3_secure_scheduling: each client trusts the master to
      // schedule WebCom components.
      if (auto s = client->store().add_policy_text(
              "Authorizer: POLICY\nLicensees: \"" + master_principal +
              "\"\nConditions: app_domain == \"WebCom\";\n");
          !s.ok()) {
        return s;
      }
      if (auto s = client->start(); !s.ok()) return s;
      clients_.push_back(std::move(client));

      mwsec::webcom::ClientInfo info;
      info.endpoint = endpoint;
      info.principal = pop.principal(i);
      info.domain = instance.domain;
      info.role = instance.role;
      info.user = pop.user(i);
      if (auto s = master_->attach_client(std::move(info)); !s.ok()) return s;

      // One prebuilt one-node graph per (action, forbidden), targeted per
      // Section 6 at this client's (domain, role, user).
      for (std::uint8_t action = 0; action < 2; ++action) {
        for (bool forbidden : {false, true}) {
          graphs_.push_back(task_graph(bridge.request_for(
              static_cast<std::uint32_t>(i), 0, action, forbidden)));
        }
      }
    }
    return settle();
  }

  std::size_t points() const override { return 1; }

  bool decide(std::size_t, const Op& op, const Request&) override {
    const auto& graph =
        graphs_[op.principal * 4u + op.action * 2u + (op.forbidden ? 1 : 0)];
    auto span = tracer_->span(SpanName::kWebcomExecute);
    return master_->execute(graph).ok();
  }

  Status settle() override {
    rebuild(master_->store(), built_version_);
    return {};
  }

  Counts counts() const override {
    Counts c;
    add(c, master_->authorizer().stats());
    const auto m = master_->stats();
    c.tasks_dispatched = m.tasks_dispatched;
    c.task_timeouts = m.tasks_timed_out;
    for (const auto& client : clients_) {
      c.client_rejections += client->stats().tasks_rejected;
    }
    add(c, bus_.stats());
    c.rebuilds = rebuilds_;
    return c;
  }

  std::size_t live_credentials() const override {
    return master_->store().credential_count();
  }

  std::size_t revoke_matching(const std::string& text) override {
    auto span = tracer_->span(SpanName::kKeynoteRemove);
    return master_->store().remove_matching(text);
  }

  std::size_t revoke_by_licensee(const std::string& principal) override {
    auto span = tracer_->span(SpanName::kKeynoteRemoveLicensee);
    return master_->store().remove_by_licensee(principal);
  }

 protected:
  Status write_policy(const std::string& text) override {
    return master_->store().add_policy_text(text);
  }

  Status write_credential(Assertion credential) override {
    auto span = tracer_->span(SpanName::kKeynoteAdmit);
    return master_->store().add_credential(std::move(credential),
                                           /*verify_signature=*/false);
  }

 private:
  static mwsec::webcom::Graph task_graph(const Request& request) {
    mwsec::webcom::Graph g;
    const auto n = g.add_node("task", "upper", 1);
    g.set_literal(n, 0, "x").ok();
    mwsec::webcom::SecurityTarget target;
    target.object_type = request.object_type;
    target.permission = request.permission;
    target.domain = request.domain;
    target.role = request.role;
    target.user = request.user;
    g.set_target(n, target).ok();
    g.set_exit(n).ok();
    return g;
  }

  static mwsec::webcom::MasterOptions master_options() {
    mwsec::webcom::MasterOptions o;
    o.security_enabled = true;
    o.task_timeout = std::chrono::milliseconds(2000);
    return o;  // workers = 0: the serial scheduler
  }

  mwsec::net::Network bus_;
  mwsec::crypto::KeyRing ring_;
  const mwsec::crypto::Identity& master_identity_ = ring_.identity("Kmaster");
  std::vector<std::unique_ptr<mwsec::webcom::Client>> clients_;
  std::unique_ptr<mwsec::webcom::Master> master_ =
      std::make_unique<mwsec::webcom::Master>(bus_, "pb.master",
                                              master_identity_,
                                              master_options());
  std::vector<mwsec::webcom::Graph> graphs_;
  std::uint64_t built_version_ = 0;
};

}  // namespace

Counts Counts::operator-(const Counts& o) const {
  Counts d;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.cache_flushes = cache_flushes - o.cache_flushes;
  d.rebuilds = rebuilds - o.rebuilds;
  d.deltas_published = deltas_published - o.deltas_published;
  d.retransmits = retransmits - o.retransmits;
  d.snapshots_served = snapshots_served - o.snapshots_served;
  d.apply_errors = apply_errors - o.apply_errors;
  d.messages = messages - o.messages;
  d.bytes = bytes - o.bytes;
  d.undeliverable = undeliverable - o.undeliverable;
  d.tasks_dispatched = tasks_dispatched - o.tasks_dispatched;
  d.task_timeouts = task_timeouts - o.task_timeouts;
  d.client_rejections = client_rejections - o.client_rejections;
  return d;
}

Rig::Rig() : tracer_(&disabled_tracer()) {}

Status Rig::admit_policy_text(const std::string& text) {
  if (!bulk_) return write_policy(text);
  bundle_ += text;
  bundle_ += '\n';
  return {};
}

Status Rig::admit(Assertion credential) {
  if (!bulk_) return write_credential(std::move(credential));
  bundle_ += credential.to_text();
  bundle_ += '\n';
  return {};
}

void Rig::rebuild(mwsec::keynote::CompiledStore& store,
                  std::uint64_t& built_version) {
  if (store.version() == built_version) return;
  auto span = tracer_->span(SpanName::kKeynoteRebuild);
  built_version = store.acquire().version;
  ++rebuilds_;
}

std::unique_ptr<Rig> make_rig(SurfaceKind kind, std::uint64_t seed) {
  switch (kind) {
    case SurfaceKind::kDirect:
      return std::make_unique<DirectRig>();
    case SurfaceKind::kFanout:
      return std::make_unique<FanoutRig>(seed);
    case SurfaceKind::kWebcom:
      return std::make_unique<WebcomRig>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
