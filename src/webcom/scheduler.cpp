#include "webcom/scheduler.hpp"

#include "webcom/flatten.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace mwsec::webcom {

namespace {

/// Scheduler lifecycle counters. Mirrors MasterStats (which stays per
/// master) as process-wide metrics, plus client-side outcomes.
struct WebcomMetrics {
  obs::Counter& tasks_dispatched;
  obs::Counter& tasks_completed;
  obs::Counter& tasks_timed_out;
  obs::Counter& tasks_denied_by_master;
  obs::Counter& tasks_denied_by_client;
  obs::Counter& retries;        ///< timed-out tasks put back on the queue
  obs::Counter& redispatches;   ///< dispatches beyond a node's first attempt
  obs::Counter& quarantines;
  obs::Counter& client_executed;
  obs::Counter& client_rejected;
  obs::Counter& client_failed;
  obs::Histogram& task_us;      ///< dispatch-to-completion latency

  static WebcomMetrics& get() {
    auto& r = obs::Registry::global();
    static WebcomMetrics m{
        r.counter("webcom.tasks_dispatched"),
        r.counter("webcom.tasks_completed"),
        r.counter("webcom.tasks_timed_out"),
        r.counter("webcom.tasks_denied_by_master"),
        r.counter("webcom.tasks_denied_by_client"),
        r.counter("webcom.retries"),
        r.counter("webcom.redispatches"),
        r.counter("webcom.quarantines"),
        // The decision-cache counters ("webcom.decision_cache_hits"/
        // "_misses") are published by the master's CachingAuthorizer.
        r.counter("webcom.client.tasks_executed"),
        r.counter("webcom.client.tasks_rejected"),
        r.counter("webcom.client.tasks_failed"),
        r.histogram("webcom.task_us"),
    };
    return m;
  }
};

}  // namespace

Master::Master(net::Transport& network, const std::string& endpoint_name,
               const crypto::Identity& identity, MasterOptions options)
    : network_(network), identity_(identity), options_(options),
      authz_(keynote_authz_, {.metric_prefix = "webcom.decision_cache"}) {
  auto ep = network_.open(endpoint_name);
  // An unusable endpoint is a programming error at construction time; the
  // scheduler cannot run without one. attach_client/execute report it as
  // an error, but say why here, while the cause is still known.
  if (ep.ok()) {
    endpoint_ = std::move(ep).take();
  } else {
    MWSEC_LOG(kError, "webcom")
        << "master endpoint '" << endpoint_name
        << "' failed to open: " << ep.error().message;
    endpoint_ = nullptr;
  }
}

void Master::set_outbound_credentials(std::string bundle_text) {
  outbound_credentials_ = std::move(bundle_text);
}

mwsec::Status Master::subscribe_policy(const std::string& authority_endpoint,
                                       sync::Replica::Options options) {
  if (endpoint_ == nullptr) {
    return Error::make("master endpoint failed to open", "webcom");
  }
  if (replica_ == nullptr) {
    // The replica applies deltas to store_ from its own thread; the
    // CachingAuthorizer in front observes the version move per decide.
    replica_ = std::make_unique<sync::Replica>(
        network_, endpoint_->name() + ".sync", store_, options);
    // Close the causal loop: when the replicated epoch moves and a cache
    // shard flushes, the "authz.verdict_flip" span joins the replica's
    // apply span — the revocation fan-out tree ends at the verdict flip.
    authz_.set_epoch_provenance(
        [this] { return replica_->last_applied_context(); });
  }
  return replica_->subscribe(authority_endpoint);
}

mwsec::Status Master::attach_client(ClientInfo info) {
  if (endpoint_ == nullptr) {
    return Error::make("master endpoint failed to open", "webcom");
  }
  if (options_.security_enabled) {
    for (const auto& cred : info.credentials) {
      if (auto s = store_.add_credential(cred); !s.ok()) {
        return Error::make("client " + info.endpoint +
                               " presented a bad credential: " +
                               s.error().message,
                           "webcom");
      }
    }
  }
  client_alive_[info.endpoint] = true;
  clients_.push_back(std::move(info));
  // New credentials can only have been admitted above, which bumps the
  // store version — but invalidate explicitly so a client attaching with
  // no credentials (or with security disabled) can never be answered from
  // decisions cached before it existed.
  authz_.invalidate();
  return {};
}

MasterStats Master::stats() const {
  // One source of truth for the query/cache columns: the unified decision
  // cache. (The scheduler used to count them a second time alongside the
  // obs registry.)
  constexpr auto r = std::memory_order_relaxed;
  MasterStats out;
  out.tasks_dispatched = stats_.tasks_dispatched.load(r);
  out.tasks_completed = stats_.tasks_completed.load(r);
  out.tasks_denied_by_master = stats_.tasks_denied_by_master.load(r);
  out.tasks_denied_by_client = stats_.tasks_denied_by_client.load(r);
  out.tasks_timed_out = stats_.tasks_timed_out.load(r);
  const auto cache = authz_.stats();
  out.keynote_queries = cache.misses + cache.bypasses;
  out.decision_cache_hits = cache.hits;
  return out;
}

bool Master::placement_ok(const ClientInfo& client, const Node& node) const {
  if (!node.target.has_value()) return true;
  const SecurityTarget& t = *node.target;
  // Section 6 placement: every constrained field must match the client's
  // execution identity.
  if (!t.domain.empty() && t.domain != client.domain) return false;
  if (!t.role.empty() && t.role != client.role) return false;
  if (!t.user.empty() && t.user != client.user) return false;
  return true;
}

bool Master::needs_authorisation(const Node& node) const {
  if (!options_.security_enabled) return false;
  if (!node.target.has_value()) return false;
  return !node.target->object_type.empty() ||
         !node.target->permission.empty();
}

authz::Request Master::scheduling_request(const ClientInfo& client,
                                          const SecurityTarget& target) const {
  authz::Request r;
  r.user = client.user;
  r.principal = client.principal;
  r.object_type = target.object_type;
  r.permission = target.permission;
  r.domain = client.domain;
  r.role = client.role;
  return r;
}

mwsec::Result<Value> Master::execute(const Graph& graph) {
  if (endpoint_ == nullptr) {
    return Error::make("master endpoint failed to open", "webcom");
  }
  if (auto s = graph.validate(); !s.ok()) return s.error();
  // The distributed protocol ships leaf operations only; condensations
  // are flattened transparently.
  if (has_condensations(graph)) {
    auto flat = flatten(graph);
    if (!flat.ok()) return flat.error();
    return execute(*flat);
  }

  auto& metrics = WebcomMetrics::get();
  auto run_span = obs::Tracer::global().root("webcom.execute");
  run_span.set_attr(obs::kAttrSystem, "webcom");
  run_span.set_attr("nodes", std::to_string(graph.nodes().size()));

  const std::size_t n = graph.nodes().size();
  std::vector<std::size_t> missing(n, 0);
  for (const auto& arc : graph.arcs()) ++missing[arc.to];
  std::deque<NodeId> ready;
  for (NodeId i = 0; i < n; ++i) {
    if (missing[i] == 0) ready.push_back(i);
  }
  std::vector<std::optional<Value>> results(n);
  std::vector<int> attempts(n, 0);
  std::map<std::uint64_t, Pending> inflight;        // task id -> state
  std::set<std::string> busy;                       // client endpoints
  std::size_t completed = 0;

  auto resolve_inputs = [&](NodeId id,
                            std::vector<Value>& inputs) -> mwsec::Status {
    const Node& node = graph.nodes()[id];
    inputs.assign(node.arity, {});
    auto producers = graph.producers_of(id);
    for (std::size_t p = 0; p < node.arity; ++p) {
      auto lit = node.literals.find(p);
      if (lit != node.literals.end()) {
        inputs[p] = lit->second;
      } else {
        auto prod = producers.find(p);
        if (prod == producers.end() || !results[prod->second].has_value()) {
          return Error::make("operand missing for " + node.name, "webcom");
        }
        inputs[p] = *results[prod->second];
      }
    }
    return {};
  };

  auto dispatch = [&](NodeId id) -> mwsec::Status {
    const Node& node = graph.nodes()[id];
    if (node.condensed != nullptr) {
      return Error::make(
          "distributed execution of condensed nodes requires flattening "
          "(evaluate locally or inline the subgraph)",
          "webcom");
    }
    // Candidates: alive clients satisfying the placement constraint...
    std::vector<const ClientInfo*> candidates;
    candidates.reserve(clients_.size());
    for (const auto& client : clients_) {
      if (!client_alive_[client.endpoint]) continue;
      if (!placement_ok(client, node)) continue;
      candidates.push_back(&client);
    }
    // ...narrowed by one authorisation decision per candidate, in order
    // (the unified cache answers repeats without a KeyNote query). When
    // every candidate is busy the outcome cannot matter this attempt —
    // dispatch would defer either way — so authorisation itself is
    // deferred too, keeping the busy-retry path free of decision work.
    if (needs_authorisation(node) && !candidates.empty()) {
      const bool any_idle =
          std::any_of(candidates.begin(), candidates.end(),
                      [&](const ClientInfo* c) {
                        return busy.count(c->endpoint) == 0;
                      });
      if (!any_idle) {
        ready.push_back(id);  // all candidates busy; re-authorise later
        return {};
      }
      std::erase_if(candidates, [&](const ClientInfo* c) {
        return !authz_.decide(scheduling_request(*c, *node.target))
                    .permitted();
      });
    }
    // Pick the first eligible idle client.
    const bool any_eligible = !candidates.empty();
    const ClientInfo* chosen = nullptr;
    for (const ClientInfo* c : candidates) {
      if (busy.count(c->endpoint)) continue;
      chosen = c;
      break;
    }
    if (!any_eligible) {
      stats_.tasks_denied_by_master.fetch_add(1, std::memory_order_relaxed);
      metrics.tasks_denied_by_master.inc();
      if (run_span.active()) {
        auto deny = run_span.child("webcom.schedule");
        deny.set_attr("node", node.name);
        deny.set_attr(obs::kAttrDecision, "deny");
        deny.set_attr(obs::kAttrDeniedBy, "master");
        deny.set_attr(obs::kAttrReason,
                      "no attached client is authorised for " + node.name);
        deny.set_status("denied");
      }
      return Error::make("no client is authorised to execute component " +
                             node.name,
                         "denied");
    }
    if (chosen == nullptr) {
      ready.push_back(id);  // all eligible clients busy; retry later
      return {};
    }

    TaskMessage task;
    task.task_id = next_task_id_++;
    task.node_name = node.name;
    task.operation = node.operation;
    if (auto s = resolve_inputs(id, task.inputs); !s.ok()) return s;
    if (node.target.has_value()) task.target = *node.target;
    task.master_principal = identity_.principal();
    task.master_credentials = outbound_credentials_;

    if (attempts[id] > 0) metrics.redispatches.inc();
    ++attempts[id];
    auto task_span = run_span.child("webcom.task");
    if (task_span.active()) {
      task_span.set_attr("node", node.name);
      task_span.set_attr("client", chosen->endpoint);
      task_span.set_attr("attempt", std::to_string(attempts[id]));
    }
    // The envelope carries the task span's context so the client's
    // handling joins this dispatch as a child across the wire.
    auto send = endpoint_->send(chosen->endpoint, kSubjectTask, task.encode(),
                                task_span.context());
    stats_.tasks_dispatched.fetch_add(1, std::memory_order_relaxed);
    metrics.tasks_dispatched.inc();
    // A send error (partition, dead endpoint) is treated like a timed-out
    // task below — but name the unreachable destination in the retry log
    // now, while the cause is still known.
    busy.insert(chosen->endpoint);
    inflight[task.task_id] =
        Pending{id, chosen->endpoint,
                std::chrono::steady_clock::now() + options_.task_timeout,
                std::move(task_span)};
    if (!send.ok()) {
      MWSEC_LOG(kWarn, "webcom")
          << "dispatch of " << node.name << " to " << chosen->endpoint
          << " failed (" << send.error().message << "); will retry after "
          << "timeout";
    }
    return {};
  };

  // Process one received message (completion, client denial, failure).
  // Unknown task ids and non-result subjects are ignored, as before.
  auto handle_message = [&](const net::Message& message,
                            std::chrono::steady_clock::time_point now)
      -> mwsec::Status {
    if (message.subject != kSubjectTaskResult) return {};
    auto result = TaskResultMessage::decode(message.payload);
    if (!result.ok()) return {};
    auto it = inflight.find(result->task_id);
    if (it == inflight.end()) return {};
    NodeId id = it->second.node;
    busy.erase(it->second.client_endpoint);
    if (obs::metrics_enabled()) {
      auto dispatched_at = it->second.deadline - options_.task_timeout;
      metrics.task_us.observe(
          std::chrono::duration<double, std::micro>(now - dispatched_at)
              .count());
    }
    Pending pending = std::move(it->second);
    inflight.erase(it);
    if (result->ok) {
      stats_.tasks_completed.fetch_add(1, std::memory_order_relaxed);
      metrics.tasks_completed.inc();
      pending.span.set_status("complete");
      pending.span.finish();
      results[id] = result->value;
      ++completed;
      for (NodeId consumer : graph.consumers_of(id)) {
        if (--missing[consumer] == 0) ready.push_back(consumer);
      }
    } else if (result->code == "denied") {
      stats_.tasks_denied_by_client.fetch_add(1, std::memory_order_relaxed);
      metrics.tasks_denied_by_client.inc();
      pending.span.set_attr(obs::kAttrDecision, "deny");
      pending.span.set_attr(obs::kAttrDeniedBy, "client");
      pending.span.set_attr(obs::kAttrReason, result->value);
      pending.span.set_status("denied");
      pending.span.finish();
      return Error::make("client refused task " + graph.nodes()[id].name +
                             ": " + result->value,
                         "denied");
    } else {
      pending.span.set_attr(obs::kAttrReason, result->value);
      pending.span.set_status("failed");
      pending.span.finish();
      return Error::make(
          "task " + graph.nodes()[id].name + " failed: " + result->value,
          result->code);
    }
    return {};
  };

  while (completed < n) {
    // Dispatch everything currently ready.
    std::size_t to_dispatch = ready.size();
    for (std::size_t i = 0; i < to_dispatch; ++i) {
      NodeId id = ready.front();
      ready.pop_front();
      if (auto s = dispatch(id); !s.ok()) return s.error();
    }

    if (inflight.empty()) {
      if (ready.empty()) {
        return Error::make("scheduler stalled: no runnable work", "webcom");
      }
      continue;  // everything ready was requeued; clients were busy
    }

    // Collect results until the earliest deadline.
    auto message = endpoint_->receive(std::chrono::milliseconds(10));
    auto now = std::chrono::steady_clock::now();
    if (message.has_value()) {
      if (auto s = handle_message(*message, now); !s.ok()) return s.error();
    }

    // Expire timed-out tasks: quarantine the client, retry elsewhere.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->second.deadline > now) {
        ++it;
        continue;
      }
      stats_.tasks_timed_out.fetch_add(1, std::memory_order_relaxed);
      metrics.tasks_timed_out.inc();
      metrics.quarantines.inc();
      MWSEC_LOG(kInfo, "webcom")
          << "task on " << it->second.client_endpoint
          << " timed out; quarantining client";
      it->second.span.set_status("timeout");
      it->second.span.finish();
      client_alive_[it->second.client_endpoint] = false;
      busy.erase(it->second.client_endpoint);
      NodeId id = it->second.node;
      it = inflight.erase(it);
      if (attempts[id] >= options_.max_attempts) {
        return Error::make("component " + graph.nodes()[id].name +
                               " failed after " +
                               std::to_string(attempts[id]) + " attempts",
                           "webcom");
      }
      metrics.retries.inc();
      ready.push_back(id);
    }
  }

  NodeId exit = *graph.exit();
  if (!results[exit].has_value()) {
    return Error::make("exit node did not complete", "webcom");
  }
  run_span.set_status("complete");
  return *results[exit];
}

Client::Client(net::Transport& network, const std::string& endpoint_name,
               const crypto::Identity& identity, OperationRegistry registry,
               ClientOptions options)
    : network_(network), endpoint_name_(endpoint_name), identity_(identity),
      registry_(std::move(registry)), options_(std::move(options)) {}

Client::~Client() { stop(); }

mwsec::Status Client::subscribe_policy(const std::string& authority_endpoint,
                                       sync::Replica::Options options) {
  if (replica_ == nullptr) {
    replica_ = std::make_unique<sync::Replica>(
        network_, endpoint_name_ + ".sync", store_, options);
  }
  return replica_->subscribe(authority_endpoint);
}

mwsec::Status Client::start() {
  auto ep = network_.open(endpoint_name_);
  if (!ep.ok()) return ep.error();
  endpoint_ = std::move(ep).take();
  thread_ = std::jthread([this](std::stop_token st) { serve(st); });
  return {};
}

void Client::stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    if (endpoint_) endpoint_->close();
    thread_.join();
  }
}

ClientStats Client::stats() const {
  std::scoped_lock lock(stats_mu_);
  return stats_;
}

authz::Verdict Client::authorise_master(const TaskMessage& task) {
  if (!options_.security_enabled) {
    return authz::Verdict::permit("webcom-client");
  }
  authz::Request request;
  request.principal = task.master_principal;
  request.object_type = task.target.object_type;
  request.permission = task.target.permission;
  request.domain = options_.domain;
  request.role = options_.role;
  if (!task.master_credentials.empty()) {
    auto bundle = keynote::Assertion::parse_bundle(task.master_credentials);
    if (!bundle.ok()) {
      auto v = authz::Verdict::deny(authz_.name());
      v.explanation = "bad credential bundle: " + bundle.error().message;
      return v;
    }
    request.credentials = std::move(bundle).take();
  }
  return authz_.decide(request);
}

void Client::serve(std::stop_token st) {
  while (!st.stop_requested()) {
    auto message = endpoint_->receive(std::chrono::milliseconds(50));
    if (!message.has_value()) {
      if (endpoint_->closed()) return;
      continue;
    }
    if (message->subject != kSubjectTask) continue;
    auto task = TaskMessage::decode(message->payload);
    if (!task.ok()) continue;  // malformed: drop, like a real server would

    TaskResultMessage reply;
    reply.task_id = task->task_id;
    auto& metrics = WebcomMetrics::get();
    // The envelope carries the master's task-span context; joining it puts
    // this client's authorise/execute under that dispatch in one causal
    // tree, and the ambient context tags any log line emitted in between.
    auto span =
        obs::Tracer::global().join("webcom.client.task", message->ctx);
    if (span.active()) {
      span.set_attr("node", task->node_name);
      span.set_attr("operation", task->operation);
    }
    obs::ScopedTraceContext ambient(span.context());
    if (const auto verdict = authorise_master(*task); !verdict.permitted()) {
      reply.ok = false;
      reply.code = "denied";
      reply.value = "master " + task->master_principal.substr(0, 16) +
                    "... is not authorised to schedule " + task->node_name;
      if (!verdict.explanation.empty()) {
        reply.value += " (" + verdict.explanation + ")";
      }
      metrics.client_rejected.inc();
      if (span.active()) {
        authz::Request request;
        request.principal = task->master_principal;
        request.object_type = task->target.object_type;
        request.permission = task->target.permission;
        auto rec = authz::decision_record(
            "webcom.client.authorise", "webcom-client", request, verdict,
            "master credentials do not authorise scheduling " +
                task->node_name);
        for (const auto& [k, v] : rec.attrs) span.set_attr(k, v);
        span.set_status(rec.status);
      }
      std::scoped_lock lock(stats_mu_);
      ++stats_.tasks_rejected;
    } else {
      auto value = registry_.invoke(task->operation, task->inputs);
      if (value.ok()) {
        reply.ok = true;
        reply.value = std::move(value).take();
        span.set_status("complete");
        metrics.client_executed.inc();
        std::scoped_lock lock(stats_mu_);
        ++stats_.tasks_executed;
      } else {
        reply.ok = false;
        reply.value = value.error().message;
        reply.code = value.error().code.empty() ? "ops" : value.error().code;
        span.set_attr(obs::kAttrReason, reply.value);
        span.set_status("failed");
        metrics.client_failed.inc();
        std::scoped_lock lock(stats_mu_);
        ++stats_.tasks_failed;
      }
    }
    // Best effort: if the master is unreachable the task will time out
    // there and be rescheduled. The reply envelope continues the client
    // span's context so the result delivery is one more traced hop.
    endpoint_->send(message->from, kSubjectTaskResult, reply.encode(),
                    span.context())
        .ok();
  }
}

}  // namespace mwsec::webcom
