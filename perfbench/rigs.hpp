// The decision surfaces, assembled from the layers' public types the way
// src/load/surface.cpp assembles them, so that every layer boundary is a
// call the benchmark can time:
//
//   direct  — one keynote::CompiledStore behind authz::KeyNoteAuthorizer
//             and authz::CachingAuthorizer;
//   fanout  — a sync::Authority publishing to two sync::Replica over the
//             in-process net::Network, each replica with its own store
//             and cache; reads route to a replica by principal hash;
//   webcom  — a webcom::Master (serial scheduler) with two attached
//             webcom::Client, security on at both ends; writes go
//             straight into the master's store.
//
// A rig is the SessionBridge's CredentialSink. During set-up it collects
// every admission into one bundle, installed by finish_setup() with
// CompiledStore::install_bundle (replicas catch up by snapshot). After
// that each write goes to the write side under a span.
//
// Only the load thread calls a rig, so spans need no locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "authz/caching.hpp"
#include "authz/keynote_authorizer.hpp"
#include "keynote/compiled_store.hpp"
#include "load/population.hpp"
#include "load/session_bridge.hpp"
#include "plan.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters read from the layers' stats() calls, plus the snapshot
/// rebuilds the load thread observes. Differences of two reads bracket a
/// pass.
struct Counts {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flushes = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t deltas_published = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t snapshots_served = 0;
  std::uint64_t apply_errors = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t undeliverable = 0;
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t task_timeouts = 0;
  std::uint64_t client_rejections = 0;

  Counts operator-(const Counts& o) const;
};

/// The authz::Authorizer decorator placed between a decision cache and
/// its KeyNote engine: each cache miss is one count and one span.
class TimedEngine final : public mwsec::authz::Authorizer {
 public:
  TimedEngine(const mwsec::authz::Authorizer& inner, Tracer* const& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  std::string explain(const mwsec::authz::Request& request,
                      const mwsec::authz::Verdict& verdict) const override {
    return inner_.explain(request, verdict);
  }
  mwsec::authz::Verdict decide(
      const mwsec::authz::Request& request) const override {
    queries_.fetch_add(1, std::memory_order_relaxed);
    auto span = tracer_->span(SpanName::kKeynoteQuery);
    return inner_.decide(request);
  }

  std::uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  const mwsec::authz::Authorizer& inner_;
  Tracer* const& tracer_;
  mutable std::atomic<std::uint64_t> queries_{0};
};

/// One store the load thread reads: engine, timing decorator, decision
/// cache.
struct DecisionPoint {
  explicit DecisionPoint(Tracer* const& tracer) : timed(engine, tracer) {}

  mwsec::keynote::CompiledStore store;
  mwsec::authz::KeyNoteAuthorizer engine{store, "perfbench"};
  TimedEngine timed;
  mwsec::authz::CachingAuthorizer cache{timed};
  std::uint64_t built_version = 0;  ///< version of the last rebuild
};

class Rig : public mwsec::load::CredentialSink {
 public:
  Rig();
  ~Rig() override = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Spans go to `tracer` until the next call; it must outlive the rig's
  /// use of it.
  void set_tracer(Tracer& tracer) { tracer_ = &tracer; }
  Tracer& tracer() { return *tracer_; }

  /// Collect admissions into a bundle until finish_setup().
  void begin_bulk() { bulk_ = true; }
  /// Install the collected bundle, start threads, attach clients, and
  /// settle every decision point.
  virtual mwsec::Status finish_setup(mwsec::load::SessionBridge& bridge,
                                     const mwsec::load::Population& pop) = 0;

  virtual std::size_t points() const = 0;
  virtual std::size_t route(const mwsec::authz::Request& request) const {
    (void)request;
    return 0;
  }
  /// One decision at `point`, as its caller sees it: a cache decide, or
  /// one scheduled task graph. True when permitted.
  virtual bool decide(std::size_t point, const Op& op,
                      const mwsec::authz::Request& request) = 0;
  /// Bring every decision point to the write side's epoch and rebuild
  /// its snapshot, so that no later read pays for this write.
  virtual mwsec::Status settle() = 0;

  virtual Counts counts() const = 0;
  /// Queries that reached a KeyNote engine behind a cache (0 where the
  /// cache is internal to the layer).
  virtual std::uint64_t backend_queries() const { return 0; }
  virtual std::size_t live_credentials() const = 0;

  mwsec::Status admit_policy_text(const std::string& text) final;
  mwsec::Status admit(mwsec::keynote::Assertion credential) final;

 protected:
  /// The live write paths behind admit() once set-up is done.
  virtual mwsec::Status write_policy(const std::string& text) = 0;
  virtual mwsec::Status write_credential(
      mwsec::keynote::Assertion credential) = 0;

  /// acquire() on `point`'s store when its version moved: the rebuild.
  void rebuild(mwsec::keynote::CompiledStore& store,
               std::uint64_t& built_version);
  void rebuild(DecisionPoint& point) {
    rebuild(point.store, point.built_version);
  }

  Tracer* tracer_;
  bool bulk_ = false;
  std::string bundle_;
  std::uint64_t rebuilds_ = 0;
};

std::unique_ptr<Rig> make_rig(SurfaceKind kind, std::uint64_t seed);

}  // namespace perfbench
