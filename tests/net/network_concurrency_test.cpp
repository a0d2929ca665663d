// Network under concurrent senders: per-endpoint MPSC queues, shared
// routing reads, and relaxed-atomic statistics must stay exact when many
// threads send at once (masters, clients and replicas sharing one bus).
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/byte_buffer.hpp"

namespace mwsec::net {
namespace {

using namespace std::chrono_literals;

TEST(NetworkConcurrency, ManySendersOneReceiverLosesNothing) {
  Network net;
  auto rx = net.open("rx").take();
  std::vector<std::shared_ptr<Endpoint>> senders;
  constexpr int kSenders = 8;
  constexpr int kPerSender = 200;
  for (int s = 0; s < kSenders; ++s) {
    senders.push_back(net.open("tx" + std::to_string(s)).take());
  }
  std::vector<std::thread> threads;
  std::atomic<int> send_errors{0};
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        auto payload =
            util::to_bytes(std::to_string(s) + ":" + std::to_string(i));
        if (!senders[s]->send("rx", "m", std::move(payload)).ok()) {
          send_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(send_errors.load(), 0);

  // Every (sender, seq) pair arrives exactly once, with a unique id.
  std::set<std::string> bodies;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    auto m = rx->receive(1s);
    ASSERT_TRUE(m.has_value()) << "missing message " << i;
    EXPECT_TRUE(bodies.insert(util::to_string(m->payload)).second);
    EXPECT_TRUE(ids.insert(m->id).second);
  }
  EXPECT_FALSE(rx->try_receive().has_value());

  auto st = net.stats();
  EXPECT_EQ(st.sent, std::uint64_t(kSenders) * kPerSender);
  EXPECT_EQ(st.delivered, std::uint64_t(kSenders) * kPerSender);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.undeliverable, 0u);
}

TEST(NetworkConcurrency, ConcurrentSendersToDistinctEndpoints) {
  Network net;
  constexpr int kPairs = 4;
  constexpr int kPerPair = 250;
  std::vector<std::shared_ptr<Endpoint>> rx, tx;
  for (int p = 0; p < kPairs; ++p) {
    rx.push_back(net.open("rx" + std::to_string(p)).take());
    tx.push_back(net.open("tx" + std::to_string(p)).take());
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerPair; ++i) {
        EXPECT_TRUE(
            tx[p]->send("rx" + std::to_string(p), "m", {}).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int p = 0; p < kPairs; ++p) {
    EXPECT_EQ(rx[p]->pending(), std::size_t(kPerPair));
  }
  EXPECT_EQ(net.stats().delivered, std::uint64_t(kPairs) * kPerPair);
}

TEST(NetworkConcurrency, StatsStayExactWithFaultInjection) {
  Network::Options opts;
  opts.seed = 11;
  opts.drop_probability = 0.2;
  opts.duplicate_probability = 0.2;
  Network net(opts);
  auto rx = net.open("rx").take();
  constexpr int kSenders = 4;
  constexpr int kPerSender = 250;
  std::vector<std::shared_ptr<Endpoint>> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.push_back(net.open("tx" + std::to_string(s)).take());
  }
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        senders[s]->send("rx", "m", {}).ok();
      }
    });
  }
  for (auto& t : threads) t.join();

  // The books must balance exactly even though drops and duplicates were
  // decided concurrently: every sent message was dropped or delivered,
  // and delivered counts each enqueued copy (original + duplicates).
  auto st = net.stats();
  EXPECT_EQ(st.sent, std::uint64_t(kSenders) * kPerSender);
  EXPECT_EQ(st.dropped + (st.delivered - st.duplicated), st.sent);
  EXPECT_EQ(rx->pending(), st.delivered);
}

TEST(NetworkConcurrency, KillRacingSendersNeverCorruptsTheBooks) {
  Network net;
  auto rx = net.open("victim").take();
  std::vector<std::shared_ptr<Endpoint>> senders;
  for (int s = 0; s < 4; ++s) {
    senders.push_back(net.open("tx" + std::to_string(s)).take());
  }
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 300; ++i) {
        if (senders[s]->send("victim", "m", {}).ok()) accepted.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(1ms);
  net.kill("victim");
  for (auto& t : threads) t.join();

  auto st = net.stats();
  EXPECT_EQ(st.sent, 1200u);
  // Successful sends were enqueued before the kill; failures counted as
  // undeliverable. Nothing is lost to the race itself.
  EXPECT_EQ(st.delivered, accepted.load());
  EXPECT_EQ(st.delivered + st.undeliverable, st.sent);
}

}  // namespace
}  // namespace mwsec::net
