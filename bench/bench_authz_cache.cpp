// The unified authz decision cache (`authz::CachingAuthorizer`), the
// decorator the WebCom scheduler now sits behind. Three regimes:
//
//   Hit          — the steady state: every request answered from the
//                  sharded map, the regime that makes Figure 3's
//                  cached-decision scheduling latency possible;
//   Miss         — cold cache over distinct requests, i.e. the backend
//                  KeyNote query plus the insert;
//   Invalidation — the store's version is bumped every iteration, so
//                  each decide pays the epoch-sync shard flush, the
//                  snapshot rebuild and a fresh backend query.
#include <benchmark/benchmark.h>

#include <string>

#include "authz/caching.hpp"
#include "authz/keynote_authorizer.hpp"
#include "keynote/compiled_store.hpp"

namespace {

using namespace mwsec;

/// Trust root mirroring the Figure 5 scheduling vocabulary: one POLICY
/// trusting the client key for anything in app_domain WebCom.
/// (CompiledStore holds a mutex, so it is filled in place, not returned.)
void fill_store(keynote::CompiledStore& store) {
  store
      .add_policy_text(
          "Authorizer: POLICY\n"
          "Licensees: \"kclient\"\n"
          "Conditions: app_domain == \"WebCom\";\n")
      .ok();
}

authz::Request request_for(int i) {
  authz::Request r;
  r.user = "client" + std::to_string(i);
  r.principal = "kclient";
  r.object_type = "SalariesDB";
  r.permission = "schedule";
  r.domain = "Finance";
  r.role = "Clerk";
  return r;
}

void BM_AuthzCache_Hit(benchmark::State& state) {
  keynote::CompiledStore store;
  fill_store(store);
  authz::KeyNoteAuthorizer backend(store);
  authz::CachingAuthorizer cache(backend);
  auto request = request_for(0);
  cache.decide(request);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.decide(request));
  }
  const auto stats = cache.stats();
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses));
}
BENCHMARK(BM_AuthzCache_Hit);

void BM_AuthzCache_Miss(benchmark::State& state) {
  keynote::CompiledStore store;
  fill_store(store);
  authz::KeyNoteAuthorizer backend(store);
  authz::CachingAuthorizer cache(backend);
  int i = 0;
  for (auto _ : state) {
    // A fresh user every iteration: always a distinct cache key.
    benchmark::DoNotOptimize(cache.decide(request_for(i++)));
  }
  state.counters["entries"] =
      benchmark::Counter(static_cast<double>(cache.size()));
}
BENCHMARK(BM_AuthzCache_Miss);

void BM_AuthzCache_HitConcurrent(benchmark::State& state) {
  // The sharded hit path under contention: N benchmark threads hammer the
  // map, each with its own principal, so requests spread across shards
  // instead of queueing on one lock.
  struct Fixture {
    keynote::CompiledStore store;
    authz::KeyNoteAuthorizer backend{store};
    authz::CachingAuthorizer cache{backend};
    Fixture() {
      for (int i = 0; i < 16; ++i) {
        store
            .add_policy_text("Authorizer: POLICY\nLicensees: \"kclient" +
                             std::to_string(i) +
                             "\"\nConditions: app_domain == \"WebCom\";\n")
            .ok();
      }
    }
  };
  static Fixture fixture;
  auto request = request_for(0);
  request.principal = "kclient" + std::to_string(state.thread_index() % 16);
  fixture.cache.decide(request);  // warm this thread's shard
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.cache.decide(request));
  }
}
BENCHMARK(BM_AuthzCache_HitConcurrent)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

void BM_AuthzCache_InvalidationOnVersionBump(benchmark::State& state) {
  keynote::CompiledStore store;
  fill_store(store);
  authz::KeyNoteAuthorizer backend(store);
  authz::CachingAuthorizer cache(backend);
  auto request = request_for(0);
  const auto other = keynote::AssertionBuilder()
                         .authorizer("\"kissuer\"")
                         .licensees("\"kother\"")
                         .conditions("app_domain == \"WebCom\";")
                         .build()
                         .take();
  const std::string other_text = other.to_text();
  for (auto _ : state) {
    // Any store mutation bumps the version; the next decide observes the
    // moved epoch, flushes its shard, rebuilds the snapshot and
    // re-queries. Add-then-remove keeps the store at constant size across
    // iterations.
    state.PauseTiming();
    store.add_credential(other, /*verify_signature=*/false).ok();
    store.remove_matching(other_text);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache.decide(request));
  }
  state.counters["invalidations"] =
      benchmark::Counter(static_cast<double>(cache.stats().invalidations));
  state.counters["assertions"] = benchmark::Counter(
      static_cast<double>(store.policy_count() + store.credential_count()));
}
BENCHMARK(BM_AuthzCache_InvalidationOnVersionBump);

}  // namespace
