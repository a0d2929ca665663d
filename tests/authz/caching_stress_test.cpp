// Concurrency stress for the sharded decision cache over the live
// KeyNote store: many threads deciding while a writer moves the store
// epoch. The property under test is verdict/epoch coherence — a verdict
// stamped with epoch E reflects exactly the policy that was live at E, so
// the cache can never serve a stale permit for the current epoch.
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

TEST(CachingStress, VerdictEpochCoherenceUnderConcurrentEpochBumps) {
  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy_text(trust("kstable")).ok());

  KeyNoteAuthorizer keynote_authz(store);
  CachingAuthorizer cache(keynote_authz, {.shards = 16});

  // The writer toggles trust for "kflappy" via install_bundle and records,
  // under a mutex, whether each version trusts it. Readers then assert:
  // any verdict for kflappy stamped with version V must match what the
  // bundle installed at V said — regardless of whether it came from the
  // cache or the backend.
  std::mutex truth_mu;
  std::map<std::uint64_t, bool> trusted_at;  // version -> kflappy trusted
  {
    std::scoped_lock lock(truth_mu);
    trusted_at[store.version()] = false;
  }

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
        auto flappy = cache.decide(request_for("kflappy"));
        {
          std::scoped_lock lock(truth_mu);
          auto it = trusted_at.find(flappy.epoch);
          // Every epoch a verdict can carry was recorded by the writer
          // before the corresponding bundle became visible.
          if (it == trusted_at.end() ||
              it->second != flappy.permitted()) {
            violations.fetch_add(1);
          }
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
    for (int i = 0; i < 100; ++i) {
      const bool trust_flappy = (i % 2 == 0);
      std::string bundle = trust("kstable");
      if (trust_flappy) bundle += "\n" + trust("kflappy");
      const std::uint64_t next = store.version() + 1;
      {
        // Record the truth for `next` BEFORE the install makes it live:
        // a reader can only observe version `next` after install_bundle
        // returns, by which point the map already says what it means.
        std::scoped_lock lock(truth_mu);
        trusted_at[next] = trust_flappy;
      }
      EXPECT_TRUE(store.install_bundle(bundle, next).ok());
    }
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

TEST(CachingStress, ConcurrentBatchesAndEpochBumps) {
  keynote::CompiledStore store;
  ASSERT_TRUE(store.add_policy_text(trust("kstable")).ok());

  KeyNoteAuthorizer keynote_authz(store);
  CachingAuthorizer cache(keynote_authz, {.shards = 8});

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
