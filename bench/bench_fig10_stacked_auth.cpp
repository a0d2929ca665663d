// Figure 10: stacked authorisation. Measures mediation latency for every
// subset of the L0/L1/L2 layers (the "pluggable" configurations), plus the
// composition strategies — showing what each security layer adds to the
// decision path.
#include <benchmark/benchmark.h>

#include "authz/keynote_authorizer.hpp"
#include "authz/middleware_authorizer.hpp"
#include "authz/stack.hpp"
#include "middleware/corba/orb.hpp"
#include "rbac/fixtures.hpp"
#include "stack/layers.hpp"
#include "translate/directory.hpp"
#include "translate/rbac_to_keynote.hpp"

namespace {

using namespace mwsec;

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/1010, /*modulus_bits=*/256);
  return r;
}

struct Rig {
  stack::OsSecurity os;
  middleware::corba::Orb orb{"unixhost", "orb1"};
  keynote::CompiledStore store;
  translate::KeyRingDirectory directory{ring()};

  Rig() {
    for (const char* u : {"Alice", "Bob", "Claire", "Dave", "Elaine"}) {
      os.add_account(u).ok();
      os.grant(u, "SalariesDB", "read").ok();
    }
    orb.define_interface({"SalariesDB", "", {"read", "write"}}).ok();
    orb.define_role("Clerk").ok();
    orb.define_role("Manager").ok();
    orb.grant("Clerk", "SalariesDB", "write").ok();
    orb.grant("Manager", "SalariesDB", "read").ok();
    orb.add_user_to_role("Alice", "Clerk").ok();
    orb.add_user_to_role("Bob", "Manager").ok();
    auto compiled = translate::compile_policy_signed(
                        rbac::salaries_policy(), ring().identity("KWebCom"),
                        directory)
                        .take();
    store.add_policy(compiled.policy).ok();
    for (const auto& cred : compiled.membership_credentials) {
      store.add_credential(cred).ok();
    }
  }

  authz::Request bob_read() {
    authz::Request r;
    r.user = "Bob";
    r.principal = directory.principal_of("Bob");
    r.object_type = "SalariesDB";
    r.permission = "read";
    r.domain = "Finance";
    r.role = "Manager";
    return r;
  }
};

void run_subset(benchmark::State& state, bool l0, bool l1, bool l2) {
  Rig rig;
  authz::Stack authorizer;
  if (l0) authorizer.push(std::make_shared<stack::OsLayer>(rig.os));
  if (l1) {
    authorizer.push(std::make_shared<authz::MiddlewareAuthorizer>(rig.orb));
  }
  if (l2) {
    authorizer.push(std::make_shared<authz::KeyNoteAuthorizer>(rig.store));
  }
  auto request = rig.bob_read();
  for (auto _ : state) {
    benchmark::DoNotOptimize(authorizer.decide(request));
  }
  state.SetLabel(std::string(l0 ? "OS " : "") + (l1 ? "MW " : "") +
                 (l2 ? "TM" : ""));
}

void BM_Fig10_OsOnly(benchmark::State& state) { run_subset(state, 1, 0, 0); }
void BM_Fig10_MiddlewareOnly(benchmark::State& state) {
  run_subset(state, 0, 1, 0);
}
void BM_Fig10_TrustOnly(benchmark::State& state) { run_subset(state, 0, 0, 1); }
void BM_Fig10_OsMiddleware(benchmark::State& state) {
  run_subset(state, 1, 1, 0);
}
void BM_Fig10_OsTrust(benchmark::State& state) {
  // The paper's "no CORBASec" configuration: KeyNote + OS.
  run_subset(state, 1, 0, 1);
}
void BM_Fig10_MiddlewareTrust(benchmark::State& state) {
  run_subset(state, 0, 1, 1);
}
void BM_Fig10_FullStack(benchmark::State& state) { run_subset(state, 1, 1, 1); }
BENCHMARK(BM_Fig10_OsOnly);
BENCHMARK(BM_Fig10_MiddlewareOnly);
BENCHMARK(BM_Fig10_TrustOnly);
BENCHMARK(BM_Fig10_OsMiddleware);
BENCHMARK(BM_Fig10_OsTrust);
BENCHMARK(BM_Fig10_MiddlewareTrust);
BENCHMARK(BM_Fig10_FullStack);

void BM_Fig10_CompositionStrategies(benchmark::State& state) {
  Rig rig;
  auto composition = static_cast<authz::Composition>(state.range(0));
  authz::Stack authorizer(composition);
  authorizer.push(std::make_shared<stack::OsLayer>(rig.os));
  authorizer.push(std::make_shared<authz::MiddlewareAuthorizer>(rig.orb));
  authorizer.push(std::make_shared<authz::KeyNoteAuthorizer>(rig.store));
  auto request = rig.bob_read();
  for (auto _ : state) {
    benchmark::DoNotOptimize(authorizer.decide(request));
  }
  switch (composition) {
    case authz::Composition::kAllMustPermit: state.SetLabel("all-must-permit"); break;
    case authz::Composition::kFirstDecisive: state.SetLabel("first-decisive"); break;
    case authz::Composition::kAnyPermits: state.SetLabel("any-permits"); break;
  }
}
BENCHMARK(BM_Fig10_CompositionStrategies)->Arg(0)->Arg(1)->Arg(2);

void BM_Fig10_DenialPath(benchmark::State& state) {
  // Unauthorised requester through the full stack: the common-case attack
  // traffic a deployment actually measures.
  Rig rig;
  authz::Stack authorizer;
  authorizer.push(std::make_shared<stack::OsLayer>(rig.os));
  authorizer.push(std::make_shared<authz::MiddlewareAuthorizer>(rig.orb));
  authorizer.push(std::make_shared<authz::KeyNoteAuthorizer>(rig.store));
  authz::Request request = rig.bob_read();
  request.user = "Mallory";
  request.principal = rig.directory.principal_of("Mallory");
  for (auto _ : state) {
    benchmark::DoNotOptimize(authorizer.decide(request));
  }
}
BENCHMARK(BM_Fig10_DenialPath);

}  // namespace
