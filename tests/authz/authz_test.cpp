// The authz decision core: the one Request/Verdict/Authorizer vocabulary
// every surface (stack, scheduler, middleware wrapper, KeyCOM, SPKI)
// speaks, plus the sharded version-keyed decision cache.
#include "authz/authz.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "authz/caching.hpp"
#include "authz/keynote_authorizer.hpp"
#include "authz/middleware_authorizer.hpp"
#include "keynote/compiled_store.hpp"
#include "middleware/corba/orb.hpp"

namespace mwsec::authz {
namespace {

Request salaries_request(const std::string& principal,
                         const std::string& permission) {
  Request r;
  r.user = "Alice";
  r.principal = principal;
  r.object_type = "SalariesDB";
  r.permission = permission;
  r.domain = "Finance";
  r.role = "Clerk";
  return r;
}

TEST(Verdict, FactoriesAndComparison) {
  auto p = Verdict::permit("L2-keynote", 7);
  EXPECT_TRUE(p.permitted());
  EXPECT_EQ(p, Decision::kPermit);
  EXPECT_EQ(p.authority, "L2-keynote");
  EXPECT_EQ(p.epoch, 7u);
  auto d = Verdict::deny("L0-os");
  EXPECT_FALSE(d.permitted());
  EXPECT_EQ(d, Decision::kDeny);
  EXPECT_EQ(Verdict::abstain("L1-CORBA"), Decision::kAbstain);
}

TEST(Fig5Query, SetsTheFigureFiveVocabulary) {
  auto q = fig5_query(salaries_request("kalice", "read"));
  ASSERT_EQ(q.action_authorizers.size(), 1u);
  EXPECT_EQ(q.action_authorizers.front(), "kalice");
  EXPECT_EQ(q.env.get("app_domain"), "WebCom");
  EXPECT_EQ(q.env.get("ObjectType"), "SalariesDB");
  EXPECT_EQ(q.env.get("Permission"), "read");
  EXPECT_EQ(q.env.get("Domain"), "Finance");
  EXPECT_EQ(q.env.get("Role"), "Clerk");
}

// --- KeyNoteAuthorizer over a live CompiledStore ------------------------

keynote::CompiledStore& clerk_store() {
  static keynote::CompiledStore* store = [] {
    auto* s = new keynote::CompiledStore;
    EXPECT_TRUE(s->add_policy_text(
                     "Authorizer: POLICY\nLicensees: \"kalice\"\n"
                     "Conditions: app_domain == \"WebCom\" &&"
                     " Permission == \"read\";\n")
                    .ok());
    return s;
  }();
  return *store;
}

TEST(KeyNoteAuthorizer, PermitsAndDeniesPerPolicy) {
  KeyNoteAuthorizer authz(clerk_store());
  EXPECT_EQ(authz.name(), "L2-keynote");
  EXPECT_TRUE(authz.decide(salaries_request("kalice", "read")).permitted());
  EXPECT_FALSE(authz.decide(salaries_request("kalice", "write")).permitted());
  EXPECT_FALSE(authz.decide(salaries_request("kmallory", "read")).permitted());
}

TEST(KeyNoteAuthorizer, VerdictCarriesStoreEpochAndAuthority) {
  KeyNoteAuthorizer authz(clerk_store());
  auto verdict = authz.decide(salaries_request("kalice", "read"));
  EXPECT_EQ(verdict.authority, "L2-keynote");
  EXPECT_EQ(verdict.epoch, clerk_store().version());
  EXPECT_EQ(authz.epoch(), clerk_store().version());
}

TEST(KeyNoteAuthorizer, ExplainNamesComplianceAndEnvironment) {
  KeyNoteAuthorizer authz(clerk_store());
  auto request = salaries_request("kalice", "write");
  auto verdict = authz.decide(request);
  auto text = authz.explain(request, verdict);
  EXPECT_NE(text.find("compliance"), std::string::npos) << text;
  EXPECT_NE(text.find("kalice"), std::string::npos) << text;
  EXPECT_NE(text.find("Permission=write"), std::string::npos) << text;
}

TEST(KeyNoteAuthorizer, SnapshotModeIsPinned) {
  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy_text(
                   "Authorizer: POLICY\nLicensees: \"kalice\"\n"
                   "Conditions: app_domain == \"WebCom\";\n")
                  .ok());
  KeyNoteAuthorizer pinned(store.snapshot_with({}), "keycom-delegation");
  EXPECT_EQ(pinned.name(), "keycom-delegation");
  const auto epoch = pinned.epoch();
  EXPECT_TRUE(pinned.decide(salaries_request("kalice", "read")).permitted());
  // A later store mutation does not move the pinned snapshot or epoch.
  ASSERT_TRUE(store.add_policy_text(
                   "Authorizer: POLICY\nLicensees: \"kbob\"\n"
                   "Conditions: app_domain == \"WebCom\";\n")
                  .ok());
  EXPECT_EQ(pinned.epoch(), epoch);
  EXPECT_FALSE(pinned.decide(salaries_request("kbob", "read")).permitted());
}

// --- MiddlewareAuthorizer ----------------------------------------------

TEST(MiddlewareAuthorizer, AbstainsOffTargetDecidesOnTarget) {
  middleware::corba::Orb orb("node1", "orb1");
  ASSERT_TRUE(orb.define_interface({"SalariesDB", "", {"read"}}).ok());
  ASSERT_TRUE(orb.define_role("Clerk").ok());
  ASSERT_TRUE(orb.grant("Clerk", "SalariesDB", "read").ok());
  ASSERT_TRUE(orb.add_user_to_role("Alice", "Clerk").ok());
  MiddlewareAuthorizer authz(orb);
  EXPECT_EQ(authz.name(), "L1-CORBA");
  EXPECT_TRUE(authz.decide(salaries_request("kalice", "read")).permitted());
  auto off_target = salaries_request("kalice", "read");
  off_target.object_type = "UnknownService";
  EXPECT_EQ(authz.decide(off_target), Decision::kAbstain);
}

// --- CachingAuthorizer --------------------------------------------------

/// Scripted backend: counts queries, answers permit/deny by a flag, and
/// reports whatever epoch the test sets.
class FakeBackend final : public Authorizer {
 public:
  std::string name() const override { return "fake"; }
  std::uint64_t epoch() const override { return epoch_; }
  Verdict decide(const Request& request) const override {
    (void)request;
    ++queries_;
    if (permit_) return Verdict::permit(name(), epoch_);
    return Verdict{Decision::kDeny, name(), "scripted deny", epoch_};
  }

  void set_epoch(std::uint64_t e) { epoch_ = e; }
  void set_permit(bool p) { permit_ = p; }
  int queries() const { return queries_; }

 private:
  std::uint64_t epoch_ = 1;
  bool permit_ = true;
  mutable std::atomic<int> queries_{0};
};

TEST(CachingAuthorizer, RepeatRequestsHitWithoutBackendQuery) {
  FakeBackend backend;
  CachingAuthorizer cache(backend);
  auto request = salaries_request("kalice", "read");
  EXPECT_TRUE(cache.decide(request).permitted());
  EXPECT_TRUE(cache.decide(request).permitted());
  EXPECT_TRUE(cache.decide(request).permitted());
  EXPECT_EQ(backend.queries(), 1);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CachingAuthorizer, DistinctRequestsAreDistinctEntries) {
  FakeBackend backend;
  CachingAuthorizer cache(backend);
  cache.decide(salaries_request("kalice", "read"));
  cache.decide(salaries_request("kalice", "write"));
  cache.decide(salaries_request("kbob", "read"));
  EXPECT_EQ(backend.queries(), 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CachingAuthorizer, EpochBumpDropsStaleVerdicts) {
  FakeBackend backend;
  CachingAuthorizer cache(backend);
  auto request = salaries_request("kalice", "read");
  EXPECT_TRUE(cache.decide(request).permitted());
  // The policy changes: the backend now denies and reports a new epoch.
  backend.set_permit(false);
  backend.set_epoch(2);
  EXPECT_FALSE(cache.decide(request).permitted());
  EXPECT_EQ(backend.queries(), 2);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(CachingAuthorizer, CredentialBearingRequestsBypass) {
  FakeBackend backend;
  CachingAuthorizer cache(backend);
  auto request = salaries_request("kalice", "read");
  request.credentials.push_back(
      keynote::Assertion::parse(
          "Authorizer: \"kwebcom\"\nLicensees: \"kalice\"\n")
          .take());
  cache.decide(request);
  cache.decide(request);
  EXPECT_EQ(backend.queries(), 2);  // never cached
  auto stats = cache.stats();
  EXPECT_EQ(stats.bypasses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CachingAuthorizer, ExplicitInvalidateForcesRequery) {
  FakeBackend backend;
  CachingAuthorizer cache(backend);
  auto request = salaries_request("kalice", "read");
  cache.decide(request);
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  cache.decide(request);
  EXPECT_EQ(backend.queries(), 2);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(CachingAuthorizer, DecideBatchRoutesThroughTheCache) {
  FakeBackend backend;
  CachingAuthorizer cache(backend);
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(salaries_request("kalice", "read"));
  }
  requests.push_back(salaries_request("kbob", "read"));
  auto verdicts =
      static_cast<const Authorizer&>(cache).decide_batch(requests);
  ASSERT_EQ(verdicts.size(), 5u);
  for (const auto& v : verdicts) EXPECT_TRUE(v.permitted());
  EXPECT_EQ(backend.queries(), 2);  // one per distinct request
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(CachingAuthorizer, ForwardsNameEpochAndExplain) {
  FakeBackend backend;
  backend.set_epoch(42);
  CachingAuthorizer cache(backend);
  EXPECT_EQ(cache.name(), "fake");
  EXPECT_EQ(cache.epoch(), 42u);
  auto request = salaries_request("kalice", "read");
  backend.set_permit(false);
  auto verdict = cache.decide(request);
  EXPECT_EQ(cache.explain(request, verdict), "scripted deny");
}

}  // namespace
}  // namespace mwsec::authz
