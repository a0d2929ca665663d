// A sharded, version-keyed decision cache usable in front of any
// `Authorizer` backend.
//
// A decision is a pure function of (request fields, backend epoch), so
// repeated requests are answered from a hash map instead of paying a
// backend query. Shards are keyed by *principal hash*: every request for
// one principal lands in one shard, which makes each shard an independent
// per-principal decision store. Each shard holds the epoch its entries
// were computed under; a shard that observes a moved epoch drops its
// entries before answering (the WebCom master's store mutations —
// attach_client admitting credentials, policy edits — invalidate this
// way). Requests presenting credentials are not pure functions of their
// fields and bypass the cache.
//
// Each of the `kShards` shards has its own mutex, so concurrent callers
// contend only when their principals share a shard.
//
// Statistics are kept in always-on relaxed atomics (`stats()`), separate
// from the obs registry counters (`<metric_prefix>_hits` / `_misses`),
// because the registry is off by default and consumers like `MasterStats`
// derive their counters from the cache rather than double-counting.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "authz/authz.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mwsec::authz {

class CachingAuthorizer final : public Authorizer {
 public:
  /// A power of two: shards are picked by masking the principal hash.
  static constexpr std::size_t kShards = 8;

  struct Options {
    /// Registry counters are published as "<prefix>_hits"/"<prefix>_misses".
    std::string metric_prefix = "authz.cache";
  };

  /// `inner` must outlive this decorator.
  explicit CachingAuthorizer(const Authorizer& inner);
  CachingAuthorizer(const Authorizer& inner, Options options);

  std::string name() const override { return inner_.name(); }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  std::string explain(const Request& request,
                      const Verdict& verdict) const override {
    return inner_.explain(request, verdict);
  }

  Verdict decide(const Request& request) const override;

  /// Drop every cached verdict regardless of epoch — e.g. a scheduler
  /// client attaching with no credentials must never be answered from
  /// decisions cached before it existed.
  void invalidate();

  /// Wire the causal origin of epoch movements. When a shard flushes
  /// because the backend epoch moved (a replicated delta landed, a policy
  /// changed) and the provenance yields a valid context, the flush emits
  /// an "authz.verdict_flip" span joined to it — the final hop of the
  /// revocation fan-out tree (publish → net → apply → flip). The WebCom
  /// master points this at its policy replica's last_applied_context().
  /// Not synchronised: wire before concurrent decide() traffic starts.
  void set_epoch_provenance(std::function<obs::TraceContext()> provenance);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< backend queries paid
    std::uint64_t bypasses = 0;      ///< credential-bearing requests
    std::uint64_t invalidations = 0; ///< epoch flushes + explicit ones
  };
  Stats stats() const;

  /// Cached entries across all shards (test/diagnostic use).
  std::size_t size() const;

 private:
  static constexpr std::uint64_t kNoEpoch = ~0ull;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Verdict> entries;
    /// Epoch the entries were computed under; kNoEpoch = not yet synced.
    std::uint64_t epoch = kNoEpoch;
  };

  static std::string cache_key(const Request& request);
  Shard& shard_for(const Request& request) const;
  Verdict decide_impl(const Request& request) const;

  const Authorizer& inner_;
  std::string metric_prefix_;
  std::function<obs::TraceContext()> provenance_;
  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> bypasses_{0};
  mutable std::atomic<std::uint64_t> invalidations_{0};
  obs::Counter& obs_hits_;
  obs::Counter& obs_misses_;
};

}  // namespace mwsec::authz
