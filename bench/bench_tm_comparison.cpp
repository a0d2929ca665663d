// Ablation across trust-management technologies (paper footnote 1 and
// §4: "We originally selected KeyNote because of its simplicity and
// expressiveness; we have since used the SDSI/SPKI system in a similar
// way"). Both TM systems carry the same compiled Figure 1 policy; we
// measure the access-decision cost of each, and how both scale with the
// number of users.
#include <benchmark/benchmark.h>

#include "keynote/compiled_store.hpp"
#include "keynote/query.hpp"
#include "rbac/fixtures.hpp"
#include "spki/rbac_to_spki.hpp"
#include "translate/rbac_to_keynote.hpp"

namespace {

using namespace mwsec;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/1111, /*modulus_bits=*/256);
  return r;
}

rbac::Policy sized_policy(std::size_t users) {
  if (users == 0) return rbac::salaries_policy();
  rbac::SyntheticSpec spec;
  spec.users = users;
  spec.domains = 3;
  spec.roles_per_domain = 4;
  return rbac::synthetic_policy(spec, 17);
}

void BM_TmCompare_KeynoteDecision(benchmark::State& state) {
  auto policy = sized_policy(static_cast<std::size_t>(state.range(0)));
  translate::KeyRingDirectory dir(ring());
  const auto& admin = ring().identity("KWebCom");
  auto compiled = translate::compile_policy_signed(policy, admin, dir).take();
  std::vector<keynote::Assertion> creds = compiled.membership_credentials;
  auto user = policy.users().front();
  auto grants = policy.assignments_of(user);

  keynote::Query q;
  q.action_authorizers = {dir.principal_of(user)};
  q.env.set("app_domain", "WebCom");
  q.env.set("Domain", grants.front().domain);
  q.env.set("Role", grants.front().role);
  auto some_grant = policy.grants_of(grants.front().domain,
                                     grants.front().role);
  q.env.set("ObjectType", some_grant.empty() ? "obj0"
                                             : some_grant.front().object_type);
  q.env.set("Permission", some_grant.empty() ? "read"
                                             : some_grant.front().permission);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keynote::evaluate({compiled.policy}, creds, q));
  }
  state.counters["users"] = static_cast<double>(policy.users().size());
}
BENCHMARK(BM_TmCompare_KeynoteDecision)->Arg(0)->Arg(20)->Arg(100);

void BM_TmCompare_KeynoteStoreDecision(benchmark::State& state) {
  // Deployment path: CompiledStore verifies signatures on add, so
  // queries run signature-free — the same verify-on-add design SPKI's
  // CertStore uses — against a compiled, memoized snapshot.
  auto policy = sized_policy(static_cast<std::size_t>(state.range(0)));
  translate::KeyRingDirectory dir(ring());
  const auto& admin = ring().identity("KWebCom");
  auto compiled = translate::compile_policy_signed(policy, admin, dir).take();
  keynote::CompiledStore store;
  store.add_policy(compiled.policy).ok();
  for (const auto& cred : compiled.membership_credentials) {
    store.add_credential(cred).ok();
  }
  auto user = policy.users().front();
  auto grants = policy.assignments_of(user);
  auto some_grant = policy.grants_of(grants.front().domain,
                                     grants.front().role);
  keynote::Query q;
  q.action_authorizers = {dir.principal_of(user)};
  q.env.set("app_domain", "WebCom");
  q.env.set("Domain", grants.front().domain);
  q.env.set("Role", grants.front().role);
  q.env.set("ObjectType", some_grant.empty() ? "obj0"
                                             : some_grant.front().object_type);
  q.env.set("Permission", some_grant.empty() ? "read"
                                             : some_grant.front().permission);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(q));
  }
  state.counters["users"] = static_cast<double>(policy.users().size());
}
BENCHMARK(BM_TmCompare_KeynoteStoreDecision)->Arg(0)->Arg(20)->Arg(100);

void BM_TmCompare_SpkiDecision(benchmark::State& state) {
  auto policy = sized_policy(static_cast<std::size_t>(state.range(0)));
  translate::KeyRingDirectory dir(ring());
  const auto& admin = ring().identity("KWebCom");
  auto compiled = spki::compile_policy_spki(policy, admin, dir).take();
  spki::CertStore store;
  spki::load(store, compiled).ok();
  auto user = policy.users().front();
  auto grants = policy.assignments_of(user);
  auto some_grant = policy.grants_of(grants.front().domain,
                                     grants.front().role);
  std::string object = some_grant.empty() ? "obj0"
                                          : some_grant.front().object_type;
  std::string perm = some_grant.empty() ? "read"
                                        : some_grant.front().permission;
  std::string requester = dir.principal_of(user);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spki::spki_check(store, admin.principal(), requester, object, perm));
  }
  state.counters["users"] = static_cast<double>(policy.users().size());
}
BENCHMARK(BM_TmCompare_SpkiDecision)->Arg(0)->Arg(20)->Arg(100);

void BM_TmCompare_KeynoteCompile(benchmark::State& state) {
  auto policy = sized_policy(50);
  translate::KeyRingDirectory dir(ring());
  const auto& admin = ring().identity("KWebCom");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        translate::compile_policy_signed(policy, admin, dir));
  }
}
BENCHMARK(BM_TmCompare_KeynoteCompile)->Unit(benchmark::kMillisecond);

void BM_TmCompare_SpkiCompile(benchmark::State& state) {
  auto policy = sized_policy(50);
  translate::KeyRingDirectory dir(ring());
  const auto& admin = ring().identity("KWebCom");
  for (auto _ : state) {
    benchmark::DoNotOptimize(spki::compile_policy_spki(policy, admin, dir));
  }
}
BENCHMARK(BM_TmCompare_SpkiCompile)->Unit(benchmark::kMillisecond);

}  // namespace
