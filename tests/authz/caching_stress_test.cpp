// Concurrency stress for the sharded decision cache over the live
// KeyNote store: many threads deciding while a writer moves the store
// epoch. The property under test is verdict/epoch coherence — a verdict
// stamped with epoch E reflects exactly the policy that was live at E, so
// the cache can never serve a stale permit for the current epoch. It must
// hold on every path: cached requests, requests presenting signed
// credentials (which bypass the cache), and fixed-handle authorisers.
#include "authz/caching.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "authz/keynote_authorizer.hpp"
#include "crypto/keys.hpp"
#include "keynote/compiled_store.hpp"

namespace mwsec::authz {
namespace {

std::string trust(const std::string& principal) {
  return "Authorizer: POLICY\nLicensees: \"" + principal +
         "\"\nConditions: app_domain == \"WebCom\";\n";
}

Request request_for(const std::string& principal) {
  Request r;
  r.user = "u";
  r.principal = principal;
  r.object_type = "Calc";
  r.permission = "add";
  r.domain = "Finance";
  r.role = "Manager";
  return r;
}

/// What each store version says about the principal a writer toggles.
/// Readers check every verdict against the version it carries.
class EpochTruth {
 public:
  explicit EpochTruth(std::uint64_t first) { trusted_at_[first] = false; }

  void record(std::uint64_t version, bool trusted) {
    std::scoped_lock lock(mu_);
    trusted_at_[version] = trusted;
  }

  /// Every epoch a verdict can carry was recorded by the writer before
  /// the corresponding bundle became visible.
  bool coherent(const Verdict& v) const {
    std::scoped_lock lock(mu_);
    auto it = trusted_at_.find(v.epoch);
    return it != trusted_at_.end() && it->second == v.permitted();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, bool> trusted_at_;
};

/// Install `rounds` bundles via install_bundle, trusting `principal` in
/// every other one (first trusted, last untrusted for even `rounds`) and
/// "kstable" in all of them.
void toggle_trust(keynote::CompiledStore& store, EpochTruth& truth,
                  const std::string& principal, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const bool trusted = (i % 2 == 0);
    std::string bundle = trust("kstable");
    if (trusted) bundle += "\n" + trust(principal);
    const std::uint64_t next = store.version() + 1;
    // Record the truth for `next` BEFORE the install makes it live: a
    // reader can only observe version `next` after install_bundle
    // returns, by which point the record already says what it means.
    truth.record(next, trusted);
    EXPECT_TRUE(store.install_bundle(bundle, next).ok());
  }
}

TEST(CachingStress, VerdictEpochCoherenceUnderConcurrentEpochBumps) {
  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy_text(trust("kstable")).ok());

  KeyNoteAuthorizer keynote_authz(store);
  CachingAuthorizer cache(keynote_authz);

  // The writer toggles trust for "kflappy" and records whether each
  // version trusts it. Readers then assert: any verdict for kflappy
  // stamped with version V must match what the bundle installed at V
  // said — regardless of whether it came from the cache or the backend.
  EpochTruth truth(store.version());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> decisions{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      // Distinct principals spread threads across shards; kflappy and
      // kstable are shared across all of them.
      const std::string mine = "kreader" + std::to_string(t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (!truth.coherent(cache.decide(request_for("kflappy")))) {
          violations.fetch_add(1);
        }
        if (!cache.decide(request_for("kstable")).permitted()) {
          violations.fetch_add(1);  // kstable is trusted in every epoch
        }
        if (cache.decide(request_for(mine)).permitted()) {
          violations.fetch_add(1);  // never granted in any epoch
        }
        decisions.fetch_add(3);
      }
    });
  }

  std::thread writer([&] {
    toggle_trust(store, truth, "kflappy", 100);
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(decisions.load(), 0u);

  // No stale permits left behind: after the dust settles, the cache's
  // answer for the final epoch matches the final policy exactly.
  const bool final_trusts_flappy = false;  // i = 99 -> odd -> untrusted
  auto final_verdict = cache.decide(request_for("kflappy"));
  EXPECT_EQ(final_verdict.permitted(), final_trusts_flappy);
  EXPECT_EQ(final_verdict.epoch, store.version());
}

TEST(CachingStress, PresentedCredentialVerdictEpochCoherence) {
  // The store trusts "kissuer" only in some versions; every request
  // presents a credential kissuer signed for "kholder". So a verdict is a
  // permit exactly when the version it was computed from trusts kissuer,
  // and its epoch must be that version — not one read before or after
  // the snapshot was compiled.
  crypto::KeyRing ring(/*seed=*/1612, /*modulus_bits=*/256);
  const crypto::Identity& issuer = ring.identity("kissuer");
  auto credential = keynote::AssertionBuilder()
                        .authorizer("\"" + issuer.principal() + "\"")
                        .licensees("\"kholder\"")
                        .conditions("app_domain == \"WebCom\";")
                        .build()
                        .take();
  ASSERT_TRUE(credential.sign_with(issuer).ok());
  Request presenting = request_for("kholder");
  presenting.credentials = {credential};

  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy_text(trust("kstable")).ok());
  KeyNoteAuthorizer keynote_authz(store);
  CachingAuthorizer cache(keynote_authz);

  EpochTruth truth(store.version());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> decisions{0};
  auto check = [&](const Verdict& v) {
    if (!truth.coherent(v)) violations.fetch_add(1);
    decisions.fetch_add(1);
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (t % 2 == 0) {
          // Live store: the credential bypasses the cache.
          check(cache.decide(presenting));
        } else {
          // Fixed handle, as KeyCOM authorises the rows of one update.
          KeyNoteAuthorizer pinned(store.snapshot_with({credential}));
          check(pinned.decide(presenting));
        }
      }
    });
  }

  std::thread writer([&] {
    toggle_trust(store, truth, issuer.principal(), 2000);
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(decisions.load(), 0u);
  // i = 1999 -> odd -> untrusted.
  auto final_verdict = cache.decide(presenting);
  EXPECT_FALSE(final_verdict.permitted());
  EXPECT_EQ(final_verdict.epoch, store.version());
}

TEST(CachingStress, ConcurrentBatchesAndEpochBumps) {
  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy_text(trust("kstable")).ok());

  KeyNoteAuthorizer keynote_authz(store);
  CachingAuthorizer cache(keynote_authz);

  std::vector<Request> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(
        request_for(i % 4 == 0 ? "kstable" : "kp" + std::to_string(i % 11)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread bumper([&] {
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          store.install_bundle(trust("kstable"), store.version() + 1).ok());
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });

  while (!stop.load(std::memory_order_relaxed)) {
    const auto verdicts = cache.decide_batch(requests);
    ASSERT_EQ(verdicts.size(), requests.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const bool expect_permit = requests[i].principal == "kstable";
      if (verdicts[i].permitted() != expect_permit) violations.fetch_add(1);
    }
  }
  bumper.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace mwsec::authz
