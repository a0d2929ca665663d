// Figure 2: the basic KeyNote mechanism. Measures assertion parsing and
// query evaluation — first on the verbatim Figure 2 policy credential,
// then with the credential store swept from 1 to 1000 assertions to show
// how decision latency scales with policy size.
//
// The store sweep exists in three flavours:
//   QueryVsStoreSize           — a prebuilt CompiledStore, the deployment
//                                path (compile once, query many). With the
//                                inverted assertion index this should be
//                                near-flat in store size;
//   QueryVsStoreSizeReference  — evaluate_reference(), the map-based
//                                Kleene interpreter, as the baseline;
//   RepeatedQueries            — one store, many queries varying only
//                                (Domain, Role): the scheduler's shape.
// RevocationStorm measures the worst case the index exists for: a version
// bump invalidates the snapshot and N principals re-query a fresh one.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "keynote/compiled_store.hpp"
#include "keynote/query.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mwsec;

constexpr const char* kFigure2 =
    "Authorizer: POLICY\n"
    "licensees: \"Kbob\"\n"
    "Conditions: app_domain==\"SalariesDB\" &&\n"
    "    (oper==\"read\" || oper==\"write\");\n";

void BM_Fig2_ParseAssertion(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(keynote::Assertion::parse(kFigure2));
  }
}
BENCHMARK(BM_Fig2_ParseAssertion);

void BM_Fig2_QueryVerbatim(benchmark::State& state) {
  auto pol = keynote::Assertion::parse(kFigure2).take();
  keynote::Query q;
  q.action_authorizers = {"Kbob"};
  q.env.set("app_domain", "SalariesDB");
  q.env.set("oper", "write");
  for (auto _ : state) {
    benchmark::DoNotOptimize(keynote::evaluate({pol}, {}, q));
  }
}
BENCHMARK(BM_Fig2_QueryVerbatim);

/// N policies each licensing a different opaque key; the requester
/// matches the last one.
std::vector<keynote::Assertion> sweep_policies(int n) {
  std::vector<keynote::Assertion> policies;
  policies.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    policies.push_back(
        keynote::AssertionBuilder()
            .authorizer("POLICY")
            .licensees("\"K" + std::to_string(i) + "\"")
            .conditions("app_domain==\"SalariesDB\" && oper==\"read\"")
            .build()
            .take());
  }
  return policies;
}

keynote::Query sweep_query(int n) {
  keynote::Query q;
  q.action_authorizers = {"K" + std::to_string(n - 1)};
  q.env.set("app_domain", "SalariesDB");
  q.env.set("oper", "read");
  return q;
}

void BM_Fig2_QueryVsStoreSize(benchmark::State& state) {
  // The deployment path: the store is compiled once (as the scheduler and
  // KeyCOM hold theirs) and each iteration is one query against it.
  const int n = static_cast<int>(state.range(0));
  keynote::CompiledStore store;
  for (auto& p : sweep_policies(n)) store.add_policy(std::move(p)).ok();
  auto snapshot = store.snapshot();
  keynote::Query q = sweep_query(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot->query(q));
  }
  state.counters["assertions"] = n;
}
BENCHMARK(BM_Fig2_QueryVsStoreSize)->RangeMultiplier(10)->Range(1, 10000);

void BM_Fig2_QueryVsStoreSizeReference(benchmark::State& state) {
  // Baseline: the reference interpreter re-walks string-keyed maps and
  // evaluates every Conditions program on every call.
  const int n = static_cast<int>(state.range(0));
  std::vector<keynote::Assertion> policies = sweep_policies(n);
  keynote::Query q = sweep_query(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keynote::evaluate_reference(policies, {}, q));
  }
  state.counters["assertions"] = n;
}
BENCHMARK(BM_Fig2_QueryVsStoreSizeReference)
    ->RangeMultiplier(10)
    ->Range(1, 1000);

void BM_Fig2_RevocationStorm(benchmark::State& state) {
  // A revocation epoch: the store version moves, the published snapshot
  // is rebuilt, and all N principals re-query it at once. Each credential
  // carries a per-principal guard (user == "u<i>"), so a cold query's
  // candidate set is the policy plus one credential regardless of N —
  // per-principal cost should track the candidate-set reduction, not the
  // store size.
  const int n = static_cast<int>(state.range(0));
  keynote::CompiledStore store;
  store
      .add_policy(keynote::AssertionBuilder()
                      .authorizer("POLICY")
                      .licensees("\"Kadmin\"")
                      .conditions("app_domain==\"SalariesDB\"")
                      .build()
                      .take())
      .ok();
  for (int i = 0; i < n; ++i) {
    store
        .add_credential(
            keynote::AssertionBuilder()
                .authorizer("\"Kadmin\"")
                .licensees("\"K" + std::to_string(i) + "\"")
                .conditions("app_domain==\"SalariesDB\" && user==\"u" +
                            std::to_string(i) + "\"")
                .build()
                .take(),
            /*verify_signature=*/false)
        .ok();
  }
  std::vector<keynote::Query> queries;
  queries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    keynote::Query q;
    q.action_authorizers = {"K" + std::to_string(i)};
    q.env.set("app_domain", "SalariesDB");
    q.env.set("user", "u" + std::to_string(i));
    queries.push_back(std::move(q));
  }
  for (auto _ : state) {
    store.advance_version_to(store.version() + 1);
    auto snapshot = store.snapshot();  // rebuilt for the new version
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(snapshot->query(q));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["principals"] = n;
  keynote::QueryContext ctx(queries[0]);
  state.counters["candidates"] = static_cast<double>(
      store.snapshot()->index().candidate_count(ctx));
}
BENCHMARK(BM_Fig2_RevocationStorm)->RangeMultiplier(10)->Range(100, 10000);

void BM_Fig2_RepeatedQueries(benchmark::State& state) {
  // One compiled store, 1000 queries per iteration cycling through a few
  // (Domain, Role) pairs — the scheduler's workload shape. Repeats are
  // cached as verdicts by authz::CachingAuthorizer, not here: every query
  // runs its fixpoint.
  const int kStore = 256;
  keynote::CompiledStore store;
  for (int i = 0; i < kStore; ++i) {
    store
        .add_policy(keynote::AssertionBuilder()
                        .authorizer("POLICY")
                        .licensees("\"K" + std::to_string(i) + "\"")
                        .conditions("Domain==\"d" + std::to_string(i % 4) +
                                    "\" && Role==\"r" + std::to_string(i % 3) +
                                    "\"")
                        .build()
                        .take())
        .ok();
  }
  auto snapshot = store.snapshot();
  std::vector<keynote::Query> queries;
  for (int i = 0; i < 12; ++i) {
    // Environment matching the target policy's conditions, so the query
    // exercises conditions evaluation rather than being rejected by the
    // guard index before any program runs.
    const int p = kStore - 1 - i;
    keynote::Query q;
    q.action_authorizers = {"K" + std::to_string(p)};
    q.env.set("Domain", "d" + std::to_string(p % 4));
    q.env.set("Role", "r" + std::to_string(p % 3));
    queries.push_back(std::move(q));
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(snapshot->query(queries[i % queries.size()]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Fig2_RepeatedQueries);

void BM_Fig2_ObservedRepeatedQueries(benchmark::State& state) {
  // NOT a latency figure (metrics are ON inside the loop; compare
  // RepeatedQueries for timing). Runs the scheduler-shaped workload
  // instrumented, reports fixpoint steps per query as a counter, and
  // appends the full registry snapshot to $MWSEC_METRICS_OUT as one
  // JSONL line labelled "fig2" for tools/bench_report.py to merge.
  const int kStore = 256;
  keynote::CompiledStore store;
  for (int i = 0; i < kStore; ++i) {
    store
        .add_policy(keynote::AssertionBuilder()
                        .authorizer("POLICY")
                        .licensees("\"K" + std::to_string(i) + "\"")
                        .conditions("Domain==\"d" + std::to_string(i % 4) +
                                    "\" && Role==\"r" + std::to_string(i % 3) +
                                    "\"")
                        .build()
                        .take())
        .ok();
  }
  auto snapshot = store.snapshot();
  std::vector<keynote::Query> queries;
  for (int i = 0; i < 12; ++i) {
    // Environment matching the target policy's conditions, so the query
    // exercises conditions evaluation rather than being rejected by the
    // guard index before any program runs.
    const int p = kStore - 1 - i;
    keynote::Query q;
    q.action_authorizers = {"K" + std::to_string(p)};
    q.env.set("Domain", "d" + std::to_string(p % 4));
    q.env.set("Role", "r" + std::to_string(p % 3));
    queries.push_back(std::move(q));
  }
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(snapshot->query(queries[i % queries.size()]));
    }
  }
  obs::set_metrics_enabled(false);
  auto metrics = obs::Registry::global().snapshot();
  state.SetItemsProcessed(state.iterations() * 1000);
  const auto kn_queries = metrics.counter_or_zero("keynote.queries");
  state.counters["fixpoint_steps_per_query"] =
      kn_queries == 0
          ? 0.0
          : static_cast<double>(
                metrics.counter_or_zero("keynote.fixpoint_steps")) /
                static_cast<double>(kn_queries);
  state.counters["kn_queries"] = static_cast<double>(kn_queries);
  if (const char* out = std::getenv("MWSEC_METRICS_OUT")) {
    obs::append_snapshot_jsonl(out, "fig2", metrics);
  }
}
BENCHMARK(BM_Fig2_ObservedRepeatedQueries);

void BM_Fig2_ConditionsComplexity(benchmark::State& state) {
  // One assertion whose conditions program has N disjuncts; the request
  // matches the last.
  const int n = static_cast<int>(state.range(0));
  std::string cond;
  for (int i = 0; i < n; ++i) {
    if (i != 0) cond += " || ";
    cond += "(Domain==\"d" + std::to_string(i) + "\" && Role==\"r" +
            std::to_string(i) + "\")";
  }
  auto pol = keynote::AssertionBuilder()
                 .authorizer("POLICY")
                 .licensees("\"K\"")
                 .conditions(cond)
                 .build()
                 .take();
  keynote::Query q;
  q.action_authorizers = {"K"};
  q.env.set("Domain", "d" + std::to_string(n - 1));
  q.env.set("Role", "r" + std::to_string(n - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(keynote::evaluate({pol}, {}, q));
  }
  state.counters["disjuncts"] = n;
}
BENCHMARK(BM_Fig2_ConditionsComplexity)->RangeMultiplier(4)->Range(1, 256);

void BM_Fig2_RegexConditions(benchmark::State& state) {
  auto pol = keynote::AssertionBuilder()
                 .authorizer("POLICY")
                 .licensees("\"K\"")
                 .conditions("path ~= \"^/srv/payroll/.*\\\\.db$\"")
                 .build()
                 .take();
  keynote::Query q;
  q.action_authorizers = {"K"};
  q.env.set("path", "/srv/payroll/2004-june.db");
  for (auto _ : state) {
    benchmark::DoNotOptimize(keynote::evaluate({pol}, {}, q));
  }
}
BENCHMARK(BM_Fig2_RegexConditions);

}  // namespace
