// The Secure WebCom master/client scheduler (paper §4, Figure 3; §6).
//
// The master walks a condensed graph and farms fireable nodes out to
// attached clients over the simulated network. With security enabled the
// scheduling decision is mediated twice, exactly as Figure 3 draws it:
//
//   master side: the client's credentials must authorise it (via the
//     master's KeyNote store) to execute the component — attributes
//     app_domain/ObjectType/Permission/Domain/Role — and the client's
//     registered (domain, role, user) must match the node's possibly
//     partial Section 6 placement constraint;
//   client side: the client authenticates the master and uses the
//     master's credentials to decide whether it is willing to execute the
//     operation scheduled to it.
//
// Fault tolerance: a task that times out (dead client, partitioned link,
// lost message) is re-scheduled on another eligible client; the dead
// client is quarantined.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <thread>

#include "authz/caching.hpp"
#include "authz/keynote_authorizer.hpp"
#include "crypto/keys.hpp"
#include "keynote/compiled_store.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "sync/replica.hpp"
#include "webcom/engine.hpp"
#include "webcom/messages.hpp"

namespace mwsec::webcom {

/// What the master knows about an attached client.
struct ClientInfo {
  std::string endpoint;   ///< network name
  std::string principal;  ///< the client's key
  /// Credentials the client presented at attach time (verified and kept
  /// in the master's store for scheduling queries).
  std::vector<keynote::Assertion> credentials;
  /// The (domain, role, user) this client executes as (Section 6).
  std::string domain;
  std::string role;
  std::string user;
};

struct MasterOptions {
  bool security_enabled = true;
  std::chrono::milliseconds task_timeout{200};
  int max_attempts = 3;  ///< per node, across clients
};

struct MasterStats {
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_denied_by_master = 0;  // no eligible client
  std::uint64_t tasks_denied_by_client = 0;
  std::uint64_t tasks_timed_out = 0;
  /// Derived from the unified decision cache (authz::CachingAuthorizer)
  /// rather than counted a second time by the scheduler.
  std::uint64_t keynote_queries = 0;  // actual store queries (cache misses)
  std::uint64_t decision_cache_hits = 0;
};

class Master {
 public:
  /// `identity` signs nothing by itself but is the principal clients see;
  /// `credentials` are shipped with each task so clients can verify the
  /// master's authority.
  Master(net::Transport& network, const std::string& endpoint_name,
         const crypto::Identity& identity, MasterOptions options = {});

  /// The master's trust root: policies trusting client keys. Compiled:
  /// credential signatures are checked once at admission and queries run
  /// against a cached compiled snapshot.
  keynote::CompiledStore& store() { return store_; }
  /// Credentials shipped to clients with every task.
  void set_outbound_credentials(std::string bundle_text);

  /// Turn the master's trust root into a live replica of a
  /// `sync::Authority`: delegations and revocations published there apply
  /// to store() mid-run, the store version moves with each delta, and the
  /// decision cache invalidates — a revoked client flips to denied on the
  /// next scheduling round without re-attaching anyone.
  mwsec::Status subscribe_policy(const std::string& authority_endpoint,
                                 sync::Replica::Options options = {});
  /// The live replica feeding store(), when subscribed.
  const sync::Replica* policy_replica() const { return replica_.get(); }

  mwsec::Status attach_client(ClientInfo info);
  std::size_t client_count() const { return clients_.size(); }

  /// Execute a validated graph across the attached clients. Runs on the
  /// calling thread until the exit value is produced or the graph fails.
  mwsec::Result<Value> execute(const Graph& graph);

  /// Lifecycle counters, with the query/cache columns derived from the
  /// unified decision cache at read time (no double bookkeeping).
  MasterStats stats() const;

  /// The unified decision cache fronting the KeyNote store.
  const authz::CachingAuthorizer& authorizer() const { return authz_; }

 private:
  struct Pending {
    NodeId node;
    std::string client_endpoint;
    std::chrono::steady_clock::time_point deadline;
    /// Open span covering this dispatch, finished when the task
    /// completes, is denied, or times out. Inert when tracing is off.
    obs::Span span;
  };

  /// Does `client` satisfy the node's (possibly partial) Section 6
  /// placement constraint?
  bool placement_ok(const ClientInfo& client, const Node& node) const;

  /// Does scheduling `node` require a trust-management decision?
  bool needs_authorisation(const Node& node) const;

  /// The authz request for scheduling `target` onto `client`.
  authz::Request scheduling_request(const ClientInfo& client,
                                    const SecurityTarget& target) const;

  net::Transport& network_;
  std::shared_ptr<net::Endpoint> endpoint_;
  const crypto::Identity& identity_;
  MasterOptions options_;
  keynote::CompiledStore store_;
  /// KeyNote over `store_`, behind the sharded version-keyed decision
  /// cache: a scheduling decision is a pure function of the request
  /// fields and the store version, so `execute` answers repeats from the
  /// cache instead of paying a KeyNote query per (client, node) pair.
  /// Store mutations (attach_client admitting credentials, policy edits
  /// through store()) move the version and invalidate.
  authz::KeyNoteAuthorizer keynote_authz_{store_};
  authz::CachingAuthorizer authz_;
  std::string outbound_credentials_;
  std::unique_ptr<sync::Replica> replica_;
  std::vector<ClientInfo> clients_;
  std::map<std::string, bool> client_alive_;

  /// Counter twin of MasterStats: relaxed atomics, so stats() may be read
  /// from any thread while execute() runs; it snapshots them and derives
  /// the cache columns.
  struct AtomicMasterStats {
    std::atomic<std::uint64_t> tasks_dispatched{0};
    std::atomic<std::uint64_t> tasks_completed{0};
    std::atomic<std::uint64_t> tasks_denied_by_master{0};
    std::atomic<std::uint64_t> tasks_denied_by_client{0};
    std::atomic<std::uint64_t> tasks_timed_out{0};
  };
  mutable AtomicMasterStats stats_;
  std::atomic<std::uint64_t> next_task_id_{1};
};

struct ClientOptions {
  bool security_enabled = true;
  /// How the client executes: its own (domain, role, user) identity.
  std::string domain;
  std::string role;
  std::string user;
};

struct ClientStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_rejected = 0;  // master not authorised
  std::uint64_t tasks_failed = 0;    // operation errors
};

/// A WebCom client: a worker thread serving tasks from its endpoint.
class Client {
 public:
  Client(net::Transport& network, const std::string& endpoint_name,
         const crypto::Identity& identity, OperationRegistry registry,
         ClientOptions options = {});
  ~Client();

  /// The client's trust root: policies trusting master keys to schedule.
  keynote::CompiledStore& store() { return store_; }

  /// Subscribe the client's trust root to a policy authority at attach
  /// time, replacing the one-shot per-task credential bundle: the master
  /// ships no `master_credentials`, and the client's willingness to serve
  /// it follows the replicated store live — including mid-run revocation
  /// of the master's authority.
  mwsec::Status subscribe_policy(const std::string& authority_endpoint,
                                 sync::Replica::Options options = {});
  const sync::Replica* policy_replica() const { return replica_.get(); }

  const std::string& endpoint_name() const { return endpoint_name_; }
  const std::string& principal() const { return identity_.principal(); }

  /// Start serving tasks on a background thread.
  mwsec::Status start();
  void stop();

  ClientStats stats() const;

 private:
  void serve(std::stop_token st);
  /// Would the client execute this task? KeyNote over the client's own
  /// trust root plus the master's presented credentials (verified per
  /// task — presented bundles bypass any cache by design).
  authz::Verdict authorise_master(const TaskMessage& task);

  net::Transport& network_;
  std::string endpoint_name_;
  const crypto::Identity& identity_;
  OperationRegistry registry_;
  ClientOptions options_;
  keynote::CompiledStore store_;
  authz::KeyNoteAuthorizer authz_{store_};
  std::unique_ptr<sync::Replica> replica_;
  std::shared_ptr<net::Endpoint> endpoint_;
  std::jthread thread_;
  mutable std::mutex stats_mu_;
  ClientStats stats_;
};

}  // namespace mwsec::webcom
