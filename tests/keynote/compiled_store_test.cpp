// The compiled engine must be observationally equivalent to the reference
// evaluator. `evaluate_reference()` is the executable specification — the
// original map-based Kleene iteration — and these tests drive both engines
// over randomized policy/credential sets that exercise delegation chains,
// k-of thresholds and delegation cycles, plus deterministic cases for each.
//
// Also covered: verify-once admission, repeat queries on one snapshot
// (the second query of the same environment must give the same verdict),
// store-version invalidation (revoking or replacing a credential changes
// the next decision), and the store's mutator surface — idempotent adds,
// the removal and listing calls, bundle round trips, and the separation
// of policies from credentials.
#include "keynote/compiled_store.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "keynote/query.hpp"
#include "util/rng.hpp"

namespace mwsec::keynote {
namespace {

using util::Rng;

constexpr int kPrincipals = 8;

std::string principal(Rng& rng) {
  return "K" + std::to_string(rng.below(kPrincipals));
}

/// Random Licensees expression: single principals, &&/|| combinations and
/// k-of thresholds, over a small universe so delegation chains link up and
/// cycles occur regularly.
std::string random_licensees(Rng& rng, int depth = 0) {
  if (depth >= 2 || rng.chance(0.45)) {
    return "\"" + principal(rng) + "\"";
  }
  if (rng.chance(0.25)) {
    // k-of threshold over distinct-ish members (duplicates are legal).
    std::size_t n = 2 + rng.below(3);
    std::size_t k = 1 + rng.below(n);
    std::string out = std::to_string(k) + "-of(";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ",";
      out += "\"" + principal(rng) + "\"";
    }
    return out + ")";
  }
  std::string l = random_licensees(rng, depth + 1);
  std::string r = random_licensees(rng, depth + 1);
  return "(" + l + (rng.chance(0.5) ? " && " : " || ") + r + ")";
}

std::string random_conditions(Rng& rng, int depth = 0) {
  auto atom = [&] {
    std::string attr(1, static_cast<char>('a' + rng.below(3)));
    std::string value = std::to_string(rng.below(4));
    const char* op = rng.chance(0.7) ? "==" : "!=";
    return attr + " " + op + " \"" + value + "\"";
  };
  if (depth >= 2 || rng.chance(0.5)) return atom();
  std::string l = random_conditions(rng, depth + 1);
  std::string r = random_conditions(rng, depth + 1);
  return "(" + l + (rng.chance(0.5) ? " && " : " || ") + r + ")";
}

Assertion random_policy(Rng& rng) {
  return AssertionBuilder()
      .authorizer("POLICY")
      .licensees(random_licensees(rng))
      .conditions(random_conditions(rng))
      .build()
      .take();
}

Assertion random_credential(Rng& rng) {
  return AssertionBuilder()
      .authorizer("\"" + principal(rng) + "\"")
      .licensees(random_licensees(rng))
      .conditions(random_conditions(rng))
      .build()
      .take();
}

Query random_query(Rng& rng) {
  Query q;
  q.action_authorizers = {principal(rng)};
  if (rng.chance(0.3)) q.action_authorizers.push_back(principal(rng));
  for (char attr : {'a', 'b', 'c'}) {
    q.env.set(std::string(1, attr), std::to_string(rng.below(4)));
  }
  return q;
}

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, CompiledMatchesReferenceOnRandomSets) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 17);
  QueryOptions lax;
  lax.verify_signatures = false;

  std::vector<Assertion> policies;
  for (std::size_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
    policies.push_back(random_policy(rng));
  }
  std::vector<Assertion> credentials;
  for (std::size_t i = 0, n = rng.below(14); i < n; ++i) {
    credentials.push_back(random_credential(rng));
  }

  CompiledStore store;
  for (const auto& p : policies) ASSERT_TRUE(store.add_policy(p).ok());
  auto snapshot = store.snapshot_with(credentials, lax).snapshot;

  for (int probe = 0; probe < 8; ++probe) {
    Query q = random_query(rng);
    auto want = evaluate_reference(policies, credentials, q, lax);
    ASSERT_TRUE(want.ok()) << want.error().message;

    auto compiled = evaluate(policies, credentials, q, lax);
    ASSERT_TRUE(compiled.ok()) << compiled.error().message;
    EXPECT_EQ(compiled->value_index, want->value_index)
        << "one-shot compiled evaluate() diverged from the reference";

    // Through the store, twice on the same snapshot.
    auto first = snapshot->query(q);
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_EQ(first->value_index, want->value_index)
        << "CompiledStore snapshot diverged from the reference";
    auto second = snapshot->query(q);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->value_index, want->value_index)
        << "repeating the same query changed the verdict";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<std::uint64_t>(0, 48));

TEST(CompiledStore, DelegationCycleDoesNotDiverge) {
  // POLICY -> K0; K0 -> K1; K1 -> K0 (a cycle); K1 is the requester.
  // The least fixpoint authorises K1 through K0's delegation, and the
  // back-edge must neither loop forever nor inflate the verdict.
  std::vector<Assertion> policies{AssertionBuilder()
                                      .authorizer("POLICY")
                                      .licensees("\"K0\"")
                                      .conditions("true")
                                      .build()
                                      .take()};
  std::vector<Assertion> creds{
      AssertionBuilder().authorizer("\"K0\"").licensees("\"K1\"").build().take(),
      AssertionBuilder().authorizer("\"K1\"").licensees("\"K0\"").build().take()};
  Query q;
  q.action_authorizers = {"K1"};
  QueryOptions lax;
  lax.verify_signatures = false;

  auto want = evaluate_reference(policies, creds, q, lax);
  auto got = evaluate(policies, creds, q, lax);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value_index, want->value_index);
  EXPECT_TRUE(got->authorized());

  // A cycle with no path from POLICY authorises nobody.
  Query q2;
  q2.action_authorizers = {"K9"};
  EXPECT_FALSE(evaluate(policies, creds, q2, lax)->authorized());
}

TEST(CompiledStore, ThresholdNeedsKSatisfiedMembers) {
  // POLICY requires 2-of(K0, K1, K2); each Ki is vouched for by a
  // credential from a requester key R only as listed.
  std::vector<Assertion> policies{AssertionBuilder()
                                      .authorizer("POLICY")
                                      .licensees("2-of(\"K0\",\"K1\",\"K2\")")
                                      .build()
                                      .take()};
  auto vouch = [](const std::string& who) {
    return AssertionBuilder()
        .authorizer("\"" + who + "\"")
        .licensees("\"R\"")
        .build()
        .take();
  };
  QueryOptions lax;
  lax.verify_signatures = false;
  Query q;
  q.action_authorizers = {"R"};

  std::vector<Assertion> one{vouch("K0")};
  EXPECT_FALSE(evaluate(policies, one, q, lax)->authorized());
  EXPECT_EQ(evaluate(policies, one, q, lax)->value_index,
            evaluate_reference(policies, one, q, lax)->value_index);

  std::vector<Assertion> two{vouch("K0"), vouch("K2")};
  EXPECT_TRUE(evaluate(policies, two, q, lax)->authorized());
  EXPECT_EQ(evaluate(policies, two, q, lax)->value_index,
            evaluate_reference(policies, two, q, lax)->value_index);
}

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/27182, /*modulus_bits=*/256);
  return r;
}

TEST(CompiledStore, VerifiesCredentialSignatureOnceAtAdmission) {
  CompiledStore store;
  ASSERT_TRUE(store
                  .add_policy(AssertionBuilder()
                                  .authorizer("POLICY")
                                  .licensees("\"" + ring().principal("Ka") +
                                             "\"")
                                  .build()
                                  .take())
                  .ok());
  // Unsigned credential: refused at admission, not at query time.
  auto unsigned_cred = AssertionBuilder()
                           .authorizer("\"" + ring().principal("Ka") + "\"")
                           .licensees("\"" + ring().principal("Kb") + "\"")
                           .build()
                           .take();
  EXPECT_FALSE(store.add_credential(unsigned_cred).ok());
  EXPECT_EQ(store.credential_count(), 0u);

  auto signed_cred = AssertionBuilder()
                         .authorizer("\"" + ring().principal("Ka") + "\"")
                         .licensees("\"" + ring().principal("Kb") + "\"")
                         .build_signed(ring().identity("Ka"))
                         .take();
  ASSERT_TRUE(store.add_credential(signed_cred).ok());

  Query q;
  q.action_authorizers = {ring().principal("Kb")};
  EXPECT_TRUE(store.query(q)->authorized());

  // Presented-but-unsigned credentials are dropped (and reported), while
  // the stored, already-verified ones still apply.
  auto r = store.query(q, {unsigned_cred});
  EXPECT_TRUE(r->authorized());
  EXPECT_EQ(r->dropped_credentials.size(), 1u);
}

TEST(CompiledStore, RevocationChangesTheNextDecision) {
  CompiledStore store;
  ASSERT_TRUE(store
                  .add_policy(AssertionBuilder()
                                  .authorizer("POLICY")
                                  .licensees("\"" + ring().principal("Kr") +
                                             "\"")
                                  .build()
                                  .take())
                  .ok());
  auto cred = AssertionBuilder()
                  .authorizer("\"" + ring().principal("Kr") + "\"")
                  .licensees("\"" + ring().principal("Ks") + "\"")
                  .build_signed(ring().identity("Kr"))
                  .take();
  ASSERT_TRUE(store.add_credential(cred).ok());

  Query q;
  q.action_authorizers = {ring().principal("Ks")};
  std::uint64_t v0 = store.version();
  EXPECT_TRUE(store.query(q)->authorized());

  // Revoke: the same query through the (invalidated) snapshot flips.
  EXPECT_EQ(store.remove_matching(cred.to_text()), 1u);
  EXPECT_GT(store.version(), v0);
  EXPECT_FALSE(store.query(q)->authorized());

  // Replace: authorisation returns, under a new version again.
  std::uint64_t v1 = store.version();
  ASSERT_TRUE(store.add_credential(cred).ok());
  EXPECT_GT(store.version(), v1);
  EXPECT_TRUE(store.query(q)->authorized());
}

TEST(CompiledStore, SnapshotOutlivesStoreMutation) {
  CompiledStore store;
  ASSERT_TRUE(store
                  .add_policy(AssertionBuilder()
                                  .authorizer("POLICY")
                                  .licensees("\"K0\"")
                                  .build()
                                  .take())
                  .ok());
  auto snapshot = store.snapshot();
  store.clear();

  Query q;
  q.action_authorizers = {"K0"};
  // The snapshot is immutable: it still answers from the pre-clear world.
  EXPECT_TRUE(snapshot->query(q)->authorized());
  EXPECT_FALSE(store.query(q)->authorized());
}

Assertion policy_for(const std::string& licensee, const std::string& cond) {
  return AssertionBuilder()
      .authorizer("POLICY")
      .licensees("\"" + ring().principal(licensee) + "\"")
      .conditions(cond)
      .build()
      .take();
}

Assertion credential(const std::string& from, const std::string& to,
                     const std::string& cond) {
  return AssertionBuilder()
      .authorizer("\"" + ring().principal(from) + "\"")
      .licensees("\"" + ring().principal(to) + "\"")
      .conditions(cond)
      .build_signed(ring().identity(from))
      .take();
}

TEST(CompiledStore, AddAndCount) {
  CompiledStore store;
  EXPECT_TRUE(store.add_policy(policy_for("Ka", "true")).ok());
  EXPECT_TRUE(store.add_credential(credential("Ka", "Kb", "true")).ok());
  EXPECT_EQ(store.policy_count(), 1u);
  EXPECT_EQ(store.credential_count(), 1u);
}

TEST(CompiledStore, RejectsMisfiled) {
  CompiledStore store;
  EXPECT_FALSE(store.add_policy(credential("Ka", "Kb", "true")).ok());
  EXPECT_EQ(store.policy_count(), 0u);
}

TEST(CompiledStore, RefusesPolicyOfferedAsCredential) {
  // An unsigned `Authorizer: POLICY` assertion passes Assertion::verify()
  // by fiat. Admitted as a credential it would become a trust root, so
  // add_credential refuses it — with or without signature checking — and
  // the store is left exactly as it was.
  CompiledStore store;
  ASSERT_TRUE(store.add_policy(policy_for("Ka", "true")).ok());
  ASSERT_TRUE(store.add_credential(credential("Ka", "Kb", "true")).ok());
  const std::string before = store.to_bundle_text();
  const std::uint64_t version = store.version();

  auto self_rooted = policy_for("Kmallory", "true");
  EXPECT_FALSE(store.add_credential(self_rooted).ok());
  EXPECT_FALSE(
      store.add_credential(self_rooted, /*verify_signature=*/false).ok());
  EXPECT_EQ(store.policy_count(), 1u);
  EXPECT_EQ(store.credential_count(), 1u);
  EXPECT_EQ(store.to_bundle_text(), before);
  EXPECT_EQ(store.version(), version);

  Query q;
  q.action_authorizers = {ring().principal("Kmallory")};
  EXPECT_FALSE(store.query(q)->authorized());
}

TEST(CompiledStore, RejectsUnverifiableCredential) {
  CompiledStore store;
  auto unsigned_cred = AssertionBuilder()
                           .authorizer("\"" + ring().principal("Ka") + "\"")
                           .licensees("\"Kb\"")
                           .conditions("true")
                           .build()
                           .take();
  EXPECT_FALSE(store.add_credential(unsigned_cred).ok());
  EXPECT_EQ(store.credential_count(), 0u);
}

TEST(CompiledStore, AddIsIdempotent) {
  CompiledStore store;
  auto c = credential("Ka", "Kb", "true");
  EXPECT_TRUE(store.add_credential(c).ok());
  const std::uint64_t version = store.version();
  EXPECT_TRUE(store.add_credential(c).ok());
  EXPECT_EQ(store.credential_count(), 1u);
  EXPECT_EQ(store.version(), version);
}

TEST(CompiledStore, RemoveMatching) {
  CompiledStore store;
  auto c1 = credential("Ka", "Kb", "oper==\"read\"");
  auto c2 = credential("Ka", "Kb", "oper==\"write\"");
  ASSERT_TRUE(store.add_credential(c1).ok());
  ASSERT_TRUE(store.add_credential(c2).ok());
  EXPECT_EQ(store.remove_matching(c1.to_text()), 1u);
  EXPECT_EQ(store.credential_count(), 1u);
  EXPECT_EQ(store.remove_matching(c1.to_text()), 0u);
}

TEST(CompiledStore, RemoveByAuthorizer) {
  CompiledStore store;
  ASSERT_TRUE(store.add_credential(credential("Ka", "Kb", "true")).ok());
  ASSERT_TRUE(store.add_credential(credential("Ka", "Kc", "true")).ok());
  ASSERT_TRUE(store.add_credential(credential("Kd", "Ke", "true")).ok());
  EXPECT_EQ(store.remove_by_authorizer(ring().principal("Ka")), 2u);
  EXPECT_EQ(store.credential_count(), 1u);
}

TEST(CompiledStore, CredentialsByAuthorizer) {
  CompiledStore store;
  ASSERT_TRUE(store.add_credential(credential("Ka", "Kb", "true")).ok());
  ASSERT_TRUE(store.add_credential(credential("Kd", "Ke", "true")).ok());
  EXPECT_EQ(store.credentials_by_authorizer(ring().principal("Ka")).size(),
            1u);
  EXPECT_EQ(store.credentials_by_authorizer("nobody").size(), 0u);
}

TEST(CompiledStore, QueryUsesStoredAndPresented) {
  CompiledStore store;
  ASSERT_TRUE(store.add_policy(policy_for("Ka", "true")).ok());
  Query q;
  q.action_authorizers = {ring().principal("Kb")};
  EXPECT_FALSE(store.query(q)->authorized());
  // Presented at request time, not stored.
  auto c = credential("Ka", "Kb", "true");
  EXPECT_TRUE(store.query(q, {c})->authorized());
  EXPECT_EQ(store.credential_count(), 0u);
}

TEST(CompiledStore, BundleRoundTrip) {
  CompiledStore store;
  ASSERT_TRUE(store.add_policy(policy_for("Ka", "oper==\"read\"")).ok());
  ASSERT_TRUE(
      store.add_credential(credential("Ka", "Kb", "oper==\"read\"")).ok());
  auto bundle = Assertion::parse_bundle(store.to_bundle_text());
  ASSERT_TRUE(bundle.ok()) << bundle.error().message;
  EXPECT_EQ(bundle->size(), 2u);
}

TEST(CompiledStore, ClearEmptiesEverything) {
  CompiledStore store;
  ASSERT_TRUE(store.add_policy(policy_for("Ka", "true")).ok());
  ASSERT_TRUE(store.add_credential(credential("Ka", "Kb", "true")).ok());
  store.clear();
  EXPECT_EQ(store.policy_count(), 0u);
  EXPECT_EQ(store.credential_count(), 0u);
}

TEST(CompiledStore, ConcurrentAddAndQuery) {
  CompiledStore store;
  ASSERT_TRUE(store.add_policy(policy_for("Ka", "true")).ok());
  // Pre-mint identities so threads do not race on key generation order
  // (KeyRing is thread-safe, but determinism of *which* key a name gets
  // depends on insertion order).
  for (int i = 0; i < 4; ++i) ring().identity("Kw" + std::to_string(i));

  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      store.add_credential(credential("Ka", "Kw" + std::to_string(t), "true"))
          .ok();
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      Query q;
      q.action_authorizers = {ring().principal("Kw" + std::to_string(t))};
      (void)store.query(q);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.credential_count(), 4u);
}

}  // namespace
}  // namespace mwsec::keynote
