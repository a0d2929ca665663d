#include "authz/caching.hpp"

#include <functional>
#include <mutex>

namespace mwsec::authz {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// One process-wide decide-latency histogram across every decision
/// surface fronted by a CachingAuthorizer — the series the SLO
/// "decide_p99_us" objective reads (per-instance hit/miss counters stay
/// under the instance's metric_prefix).
obs::Histogram& decide_us_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "authz.decide_us");
  return h;
}

}  // namespace

CachingAuthorizer::CachingAuthorizer(const Authorizer& inner)
    : CachingAuthorizer(inner, Options{}) {}

CachingAuthorizer::CachingAuthorizer(const Authorizer& inner, Options options)
    : inner_(inner),
      metric_prefix_(options.metric_prefix),
      obs_hits_(
          obs::Registry::global().counter(options.metric_prefix + "_hits")),
      obs_misses_(
          obs::Registry::global().counter(options.metric_prefix + "_misses")) {}

std::string CachingAuthorizer::cache_key(const Request& request) {
  // One allocation: the identity fields joined on a separator that cannot
  // occur in them (0x1f, ASCII unit separator).
  std::string key;
  key.reserve(request.user.size() + request.principal.size() +
              request.object_type.size() + request.permission.size() +
              request.domain.size() + request.role.size() + 5);
  key += request.user;
  key += '\x1f';
  key += request.principal;
  key += '\x1f';
  key += request.object_type;
  key += '\x1f';
  key += request.permission;
  key += '\x1f';
  key += request.domain;
  key += '\x1f';
  key += request.role;
  for (const auto& [name, value] : request.attributes) {
    key += '\x1f';
    key += name;
    key += '\x1e';
    key += value;
  }
  return key;
}

CachingAuthorizer::Shard& CachingAuthorizer::shard_for(
    const Request& request) const {
  // Principal hash, not full-key hash: one principal's decisions live in
  // one shard, so shards partition the principal space.
  static_assert((kShards & (kShards - 1)) == 0);
  return shards_[std::hash<std::string>{}(request.principal) & (kShards - 1)];
}

void CachingAuthorizer::set_epoch_provenance(
    std::function<obs::TraceContext()> provenance) {
  provenance_ = std::move(provenance);
}

Verdict CachingAuthorizer::decide(const Request& request) const {
  obs::ScopedTimer timer(decide_us_histogram());
  if (!request.credentials.empty()) {
    bypasses_.fetch_add(1, kRelaxed);
    return inner_.decide(request);
  }
  const std::uint64_t now = inner_.epoch();
  std::string key = cache_key(request);
  Shard& shard = shard_for(request);
  {
    std::scoped_lock lock(shard.mu);
    if (shard.epoch != now) {
      if (!shard.entries.empty()) {
        shard.entries.clear();
        invalidations_.fetch_add(1, kRelaxed);
        // The flush is *the* observable verdict flip: whatever this
        // shard answered before, it re-derives under the new epoch from
        // here on. Join the span to whatever moved the epoch (the
        // replica's apply, via the wired provenance) to close the
        // revocation fan-out tree.
        if (provenance_ && obs::Tracer::global().enabled()) {
          if (obs::TraceContext origin = provenance_(); origin.valid()) {
            obs::Span flip =
                obs::Tracer::global().join("authz.verdict_flip", origin);
            flip.set_attr("cache", metric_prefix_);
            flip.set_attr("epoch", std::to_string(now));
            flip.set_attr(obs::kAttrPrincipal, request.principal);
            flip.set_status("flushed");
          }
        }
      }
      shard.epoch = now;
    }
    if (auto it = shard.entries.find(key); it != shard.entries.end()) {
      hits_.fetch_add(1, kRelaxed);
      obs_hits_.inc();
      return it->second;
    }
  }
  misses_.fetch_add(1, kRelaxed);
  obs_misses_.inc();
  // The backend query runs outside the shard lock (it may be slow);
  // concurrent misses on the same key duplicate the query harmlessly.
  Verdict verdict = inner_.decide(request);
  {
    std::scoped_lock lock(shard.mu);
    // Only cache a verdict computed under the epoch the shard is at — a
    // store mutation racing the query would otherwise pin a stale answer.
    if (shard.epoch == verdict.epoch) {
      shard.entries.emplace(std::move(key), verdict);
    }
  }
  return verdict;
}

void CachingAuthorizer::invalidate() {
  bool dropped = false;
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    dropped = dropped || !shard.entries.empty();
    shard.entries.clear();
    shard.epoch = kNoEpoch;
  }
  if (dropped) invalidations_.fetch_add(1, kRelaxed);
}

CachingAuthorizer::Stats CachingAuthorizer::stats() const {
  return Stats{hits_.load(kRelaxed), misses_.load(kRelaxed),
               bypasses_.load(kRelaxed), invalidations_.load(kRelaxed)};
}

std::size_t CachingAuthorizer::size() const {
  std::size_t n = 0;
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    n += shard.entries.size();
  }
  return n;
}

}  // namespace mwsec::authz
