// §4.5 / introduction claim: "relying on centralised authorisation
// servers when supporting heterogeneous middleware creates a bottleneck."
// Compares authorisation throughput of (a) one central authorisation
// server mediating for N concurrent requester threads over the simulated
// network against (b) each node evaluating KeyNote credentials locally.
// The shape to reproduce: central throughput saturates at the server;
// decentralised throughput scales with the number of nodes.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "keynote/compiled_store.hpp"
#include "net/network.hpp"
#include "translate/directory.hpp"
#include "translate/rbac_to_keynote.hpp"
#include "rbac/fixtures.hpp"

namespace {

using namespace mwsec;
using namespace std::chrono_literals;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/2222, /*modulus_bits=*/256);
  return r;
}

/// A store holding the compiled Figure 1 policy + membership credentials.
std::shared_ptr<keynote::CompiledStore> make_store() {
  auto store = std::make_shared<keynote::CompiledStore>();
  translate::KeyRingDirectory dir(ring());
  auto compiled = translate::compile_policy_signed(
                      rbac::salaries_policy(), ring().identity("KWebCom"),
                      dir)
                      .take();
  store->add_policy(compiled.policy).ok();
  for (const auto& cred : compiled.membership_credentials) {
    store->add_credential(cred).ok();
  }
  return store;
}

keynote::Query bob_query() {
  translate::KeyRingDirectory dir(ring());
  keynote::Query q;
  q.action_authorizers = {dir.principal_of("Bob")};
  q.env.set("app_domain", "WebCom");
  q.env.set("ObjectType", "SalariesDB");
  q.env.set("Domain", "Finance");
  q.env.set("Role", "Manager");
  q.env.set("Permission", "read");
  return q;
}

void BM_Decentralised_LocalEvaluation(benchmark::State& state) {
  // Each node holds the credentials and decides locally: per-node cost,
  // aggregate scales linearly with nodes (threads simulate nodes).
  static auto store = make_store();
  auto q = bob_query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->query(q));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decentralised_LocalEvaluation)->ThreadRange(1, 4);

void BM_Centralised_AuthorisationServer(benchmark::State& state) {
  // One server thread answers authorisation requests over the network;
  // N requester threads funnel through it. Throughput is bounded by the
  // single server regardless of requester count.
  const int requesters = static_cast<int>(state.range(0));
  net::Network network;
  auto store = make_store();
  auto server_ep = network.open("authz-server").take();
  std::atomic<bool> stop{false};
  std::jthread server([&] {
    auto q = bob_query();
    while (!stop.load(std::memory_order_relaxed)) {
      auto m = server_ep->receive(10ms);
      if (!m.has_value()) continue;
      auto r = store->query(q);
      util::ByteWriter w;
      w.u8(r.ok() && r->authorized() ? 1 : 0);
      server_ep->send(m->from, "authz-reply", w.take()).ok();
    }
  });

  std::atomic<std::uint64_t> completed{0};
  {
    std::vector<std::jthread> threads;
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    for (int t = 0; t < requesters; ++t) {
      threads.emplace_back([&, t] {
        auto ep = network.open("req" + std::to_string(t)).take();
        while (!go.load()) std::this_thread::yield();
        while (!done.load(std::memory_order_relaxed)) {
          ep->send("authz-server", "authz-request", {}).ok();
          auto reply = ep->receive(1000ms);
          if (reply.has_value()) {
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    go.store(true);
    for (auto _ : state) {
      // One benchmark iteration = 50 completed authorisations observed.
      std::uint64_t base = completed.load();
      while (completed.load() < base + 50) std::this_thread::yield();
    }
    done.store(true);
  }
  stop.store(true);
  state.SetItemsProcessed(state.iterations() * 50);
  state.counters["requesters"] = requesters;
}
BENCHMARK(BM_Centralised_AuthorisationServer)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
