// Figure 3: the WebCom–KeyNote architecture. Measures distributed
// condensed-graph execution through the master/client scheduler with
// trust management ON vs OFF — the cost of the paper's security
// mediation on the scheduling path — swept over graph width and client
// count.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "webcom/scheduler.hpp"

namespace {

using namespace mwsec;
using namespace std::chrono_literals;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/303, /*modulus_bits=*/256);
  return r;
}

std::string trust_for(const std::string& principal) {
  return "Authorizer: POLICY\nLicensees: \"" + principal +
         "\"\nConditions: app_domain == \"WebCom\";\n";
}

struct Rig {
  net::Network network;
  std::unique_ptr<webcom::Master> master;
  std::vector<std::unique_ptr<webcom::Client>> clients;

  Rig(std::size_t n_clients, bool security) {
    const auto& master_id = ring().identity("KMaster");
    webcom::MasterOptions mopts;
    mopts.security_enabled = security;
    mopts.task_timeout = 2000ms;
    master = std::make_unique<webcom::Master>(network, "master", master_id,
                                              mopts);
    for (std::size_t i = 0; i < n_clients; ++i) {
      std::string name = "c" + std::to_string(i);
      const auto& cid = ring().identity("K" + name);
      webcom::ClientOptions copts;
      copts.security_enabled = security;
      copts.domain = "Finance";
      copts.role = "Manager";
      copts.user = "u" + std::to_string(i);
      auto client = std::make_unique<webcom::Client>(
          network, name, cid, webcom::OperationRegistry::with_builtins(),
          copts);
      if (security) {
        client->store().add_policy_text(trust_for(master_id.principal())).ok();
        master->store().add_policy_text(trust_for(cid.principal())).ok();
      }
      client->start().ok();
      clients.push_back(std::move(client));
      webcom::ClientInfo info;
      info.endpoint = name;
      info.principal = cid.principal();
      info.domain = copts.domain;
      info.role = copts.role;
      info.user = copts.user;
      master->attach_client(info).ok();
    }
  }
};

webcom::Graph wide_graph(int width, bool with_targets) {
  webcom::Graph g;
  std::vector<webcom::NodeId> hashes;
  for (int i = 0; i < width; ++i) {
    auto h = g.add_node("h" + std::to_string(i), "sha.hex", 1);
    g.set_literal(h, 0, "input-" + std::to_string(i)).ok();
    if (with_targets) {
      webcom::SecurityTarget t;
      t.object_type = "Payroll";
      t.permission = "digest";
      g.set_target(h, t).ok();
    }
    hashes.push_back(h);
  }
  auto join = g.add_node("join", "concat", static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    g.connect(hashes[static_cast<std::size_t>(i)], join,
              static_cast<std::size_t>(i))
        .ok();
  }
  g.set_exit(join).ok();
  return g;
}

void run_case(benchmark::State& state, bool security) {
  const int width = static_cast<int>(state.range(0));
  const auto n_clients = static_cast<std::size_t>(state.range(1));
  Rig rig(n_clients, security);
  webcom::Graph g = wide_graph(width, security);
  for (auto _ : state) {
    auto v = rig.master->execute(g);
    if (!v.ok()) state.SkipWithError(v.error().message.c_str());
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * (width + 1));
  state.counters["width"] = width;
  state.counters["clients"] = static_cast<double>(n_clients);
  state.counters["kn_queries"] =
      static_cast<double>(rig.master->stats().keynote_queries);
}

void BM_Fig3_SchedulingInsecure(benchmark::State& state) {
  run_case(state, /*security=*/false);
}
BENCHMARK(BM_Fig3_SchedulingInsecure)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({32, 4})
    ->Args({128, 4})
    ->Unit(benchmark::kMillisecond);

void BM_Fig3_SchedulingSecure(benchmark::State& state) {
  run_case(state, /*security=*/true);
}
BENCHMARK(BM_Fig3_SchedulingSecure)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({32, 4})
    ->Args({128, 4})
    ->Unit(benchmark::kMillisecond);

void BM_Fig3_ObservedSecureScheduling(benchmark::State& state) {
  // NOT a latency figure (metrics are ON inside the loop; compare
  // SchedulingSecure for timing). One secure 32x4 run instrumented, so
  // the scheduler's decision-cache hit rate and task-lifecycle counters
  // land in the BENCH JSON, and the snapshot is appended to
  // $MWSEC_METRICS_OUT labelled "fig3".
  Rig rig(4, /*security=*/true);
  webcom::Graph g = wide_graph(32, true);
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    auto v = rig.master->execute(g);
    if (!v.ok()) state.SkipWithError(v.error().message.c_str());
    benchmark::DoNotOptimize(v);
  }
  obs::set_metrics_enabled(false);
  auto metrics = obs::Registry::global().snapshot();
  state.SetItemsProcessed(state.iterations() * 33);
  state.counters["cache_hit_rate"] = metrics.hit_rate(
      "webcom.decision_cache_hits", "webcom.decision_cache_misses");
  state.counters["tasks_completed"] =
      static_cast<double>(metrics.counter_or_zero("webcom.tasks_completed"));
  if (const char* out = std::getenv("MWSEC_METRICS_OUT")) {
    obs::append_snapshot_jsonl(out, "fig3", metrics);
  }
}
BENCHMARK(BM_Fig3_ObservedSecureScheduling)->Unit(benchmark::kMillisecond);

void BM_Fig3_LocalEvaluationBaseline(benchmark::State& state) {
  // The same graph evaluated in-process: what the network + mediation add.
  const int width = static_cast<int>(state.range(0));
  auto g = wide_graph(width, false);
  auto registry = webcom::OperationRegistry::with_builtins();
  for (auto _ : state) {
    benchmark::DoNotOptimize(webcom::evaluate(g, registry));
  }
  state.counters["width"] = width;
}
BENCHMARK(BM_Fig3_LocalEvaluationBaseline)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
