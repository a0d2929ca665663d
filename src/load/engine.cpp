#include "load/engine.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "middleware/com/catalogue.hpp"
#include "middleware/ejb/container.hpp"
#include "translate/directory.hpp"
#include "translate/migration.hpp"
#include "translate/rbac_to_keynote.hpp"
#include "util/strings.hpp"

namespace mwsec::load {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

/// Process-wide observability mirror: the same counters per-phase local
/// tallies feed, published through obs:: for anyone watching the run
/// (mwsec-stats, metric snapshots). The run report itself is built from
/// the local tallies so back-to-back runs in one process don't bleed
/// into each other.
struct LoadMetrics {
  obs::Counter& requests;
  obs::Counter& permits;
  obs::Counter& denies;
  obs::Counter& stale;
  obs::Counter& oracle_checks;
  obs::Counter& oracle_violations;
  obs::Counter& activations;
  obs::Counter& deactivations;
  obs::Counter& revocations;
  obs::Histogram& decide_us;

  static LoadMetrics& get() {
    auto& r = obs::Registry::global();
    static LoadMetrics m{
        r.counter("load.requests"),
        r.counter("load.permits"),
        r.counter("load.denies"),
        r.counter("load.stale_verdicts"),
        r.counter("load.oracle_checks"),
        r.counter("load.oracle_violations"),
        r.counter("load.session_activations"),
        r.counter("load.session_deactivations"),
        r.counter("load.revocations"),
        r.histogram("load.decide_us", obs::Histogram::latency_bounds_us()),
    };
    return m;
  }
};

}  // namespace

std::uint64_t RunReport::total_requests() const {
  std::uint64_t n = 0;
  for (const auto& p : phases) n += p.requests;
  return n;
}

std::uint64_t RunReport::total_violations() const {
  std::uint64_t n = 0;
  for (const auto& p : phases) n += p.oracle_violations;
  return n;
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  os << "{\"scenario\":\"" << util::json_escape(scenario) << "\""
     << ",\"surface\":\"" << util::json_escape(surface) << "\""
     << ",\"seed\":" << seed << ",\"principals\":" << principals
     << ",\"pass\":" << (pass ? "true" : "false") << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << util::json_escape(p.name) << "\""
       << ",\"completed\":" << (p.completed ? "true" : "false")
       << ",\"requests\":" << p.requests << ",\"permits\":" << p.permits
       << ",\"denies\":" << p.denies << ",\"stale\":" << p.stale
       << ",\"oracle_checks\":" << p.oracle_checks
       << ",\"oracle_violations\":" << p.oracle_violations
       << ",\"activations\":" << p.activations
       << ",\"deactivations\":" << p.deactivations
       << ",\"revocations\":" << p.revocations
       << ",\"migrations\":" << p.migrations << ",\"flaps\":" << p.flaps
       << ",\"chain_queries\":" << p.chain_queries
       << ",\"decide_p50_us\":" << p.decide_p50_us
       << ",\"decide_p99_us\":" << p.decide_p99_us
       << ",\"duration_ms\":" << p.duration_ms << ",\"violation_samples\":[";
    for (std::size_t j = 0; j < p.violation_samples.size(); ++j) {
      if (j != 0) os << ",";
      os << "\"" << util::json_escape(p.violation_samples[j]) << "\"";
    }
    os << "]}";
  }
  os << "],\"slo\":" << slo.to_json() << "}";
  return os.str();
}

Engine::Engine(Surface& surface, const Population& population,
               EngineOptions options)
    : surface_(surface), population_(population), options_(options),
      caps_(surface.caps()),
      effective_principals_(
          caps_.max_principals == 0
              ? population.size()
              : std::min(population.size(), caps_.max_principals)),
      rng_(options.seed ^ 0xc0ffee),
      overall_(obs::Histogram::latency_bounds_us()) {
  SessionBridgeOptions bopts;
  bopts.strip_params = !caps_.supports_params;
  bopts.max_active_per_session = options_.max_active_per_session;
  bridge_ = std::make_unique<SessionBridge>(population_, surface_.sink(),
                                            bopts);
  zipf_ = std::make_unique<ZipfGenerator>(effective_principals_,
                                          options_.zipf_exponent,
                                          options_.seed);
}

Engine::~Engine() = default;

mwsec::Result<RunReport> Engine::run(const Scenario& scenario) {
  RunReport report;
  report.scenario = scenario.name;
  report.surface = surface_.name();
  report.seed = options_.seed;
  report.principals = effective_principals_;

  if (auto s = bridge_->install_policy_root(); !s.ok()) return s.error();
  if (auto s = surface_.settle(options_.settle_timeout); !s.ok()) {
    return s.error();
  }

  // Replica apply errors are an SLO: snapshot the process-wide counter so
  // earlier runs in this process don't count against this one.
  auto& apply_errors = obs::Registry::global().counter("sync.apply_errors");
  const std::uint64_t apply_errors_before = apply_errors.value();

  // Scale phase durations when the caller asked for a total budget.
  std::chrono::milliseconds total{0};
  for (const auto& p : scenario.phases) total += p.duration;
  const double scale =
      (options_.duration_override.count() > 0 && total.count() > 0)
          ? double(options_.duration_override.count()) / total.count()
          : 1.0;

  for (const auto& phase : scenario.phases) {
    auto duration = std::chrono::milliseconds(
        std::max<std::int64_t>(50, std::int64_t(phase.duration.count() *
                                                scale)));
    report.phases.push_back(run_phase(phase, duration));
  }

  const auto snap = overall_.snapshot();
  const auto c = double(report.total_violations());
  obs::SloReport slo;
  slo.results.push_back({"decide_p99_us",
                         obs::slo_kind_name(
                             obs::SloObjective::Kind::kHistogramP99Max),
                         snap.p99 <= options_.p99_budget_us, snap.p99,
                         options_.p99_budget_us,
                         "overall decision latency"});
  slo.results.push_back({"oracle_violations",
                         obs::slo_kind_name(
                             obs::SloObjective::Kind::kCounterAtMost),
                         c <= 0, c, 0, "denied-correctness oracle"});
  const double requests = double(report.total_requests());
  slo.results.push_back({"requests",
                         obs::slo_kind_name(
                             obs::SloObjective::Kind::kCounterAtLeast),
                         requests >= double(options_.min_requests), requests,
                         double(options_.min_requests),
                         "the run actually ran"});
  const double apply_delta =
      double(apply_errors.value() - apply_errors_before);
  slo.results.push_back({"sync_apply_errors",
                         obs::slo_kind_name(
                             obs::SloObjective::Kind::kCounterAtMost),
                         apply_delta <= 0, apply_delta, 0,
                         "replica delta application errors"});
  report.slo = std::move(slo);

  bool phases_ok = true;
  for (const auto& p : report.phases) phases_ok = phases_ok && p.completed;
  report.pass = report.slo.pass() && phases_ok;
  return report;
}

PhaseReport Engine::run_phase(const Phase& phase,
                              std::chrono::milliseconds duration) {
  PhaseReport rep;
  rep.name = phase.name;
  obs::Histogram hist(obs::Histogram::latency_bounds_us());

  const auto start = Clock::now();
  const auto deadline = start + duration;

  // Adversary ticks at evenly spaced interior points of the phase.
  std::vector<Clock::time_point> ticks;
  if (phase.adversary != Adversary::kNone) {
    for (std::size_t t = 1; t <= phase.adversary_ticks; ++t) {
      ticks.push_back(start + duration * t / (phase.adversary_ticks + 1));
    }
  }
  std::size_t next_tick = 0;

  const bool open_loop = phase.open_rate > 0;
  const auto interval =
      open_loop ? std::chrono::nanoseconds(
                      std::int64_t(1e9 / phase.open_rate))
                : std::chrono::nanoseconds(0);
  auto next_send = start;

  const auto activations0 = bridge_->stats().activations;
  const auto deactivations0 = bridge_->stats().deactivations;
  const auto revocations0 = bridge_->stats().revocations;

  while (Clock::now() < deadline) {
    if (next_tick < ticks.size() && Clock::now() >= ticks[next_tick]) {
      run_adversary(phase, rep, next_tick);
      ++next_tick;
      continue;
    }
    if (open_loop) {
      const auto now = Clock::now();
      if (now < next_send) {
        std::this_thread::sleep_until(std::min(next_send, deadline));
        continue;
      }
      next_send += interval;
    }
    one_request(phase, rep, hist);
  }
  // Fire any adversary ticks the clock ran past (keeps flap down/up
  // pairings and per-seed determinism of the adversary sequence).
  for (; next_tick < ticks.size(); ++next_tick) {
    run_adversary(phase, rep, next_tick);
  }

  rep.activations = bridge_->stats().activations - activations0;
  rep.deactivations = bridge_->stats().deactivations - deactivations0;
  rep.revocations = bridge_->stats().revocations - revocations0;

  if (auto s = surface_.settle(options_.settle_timeout); s.ok()) {
    oracle_sweep(rep);
    rep.completed = true;
  } else {
    record_violation(rep, "phase did not settle: " + s.error().message);
    rep.completed = false;
  }

  const auto snap = hist.snapshot();
  rep.decide_p50_us = snap.p50;
  rep.decide_p99_us = snap.p99;
  rep.duration_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  return rep;
}

void Engine::one_request(const Phase& phase, PhaseReport& rep,
                         obs::Histogram& hist) {
  auto& metrics = LoadMetrics::get();
  const std::size_t i = zipf_->next();

  if (!bridge_->touched(i)) {
    if (auto s = surface_.on_first_touch(i); !s.ok()) return;
    bridge_->activate(i, 0).ok();  // fails only for revoked principals
  }

  const std::size_t entitlements =
      caps_.single_entitlement ? 1 : bridge_->entitlement_count(i);

  if (!caps_.single_entitlement && !bridge_->is_revoked(i)) {
    if (rng_.chance(phase.activate_prob)) {
      if (bridge_->activate(i, rng_.next_below(entitlements)).ok()) {
        metrics.activations.inc();
      }
    }
    if (rng_.chance(phase.deactivate_prob)) {
      if (bridge_->deactivate(i, rng_.next_below(entitlements)).ok()) {
        metrics.deactivations.inc();
      }
    }
  }

  const bool forbidden = rng_.chance(phase.forbidden_prob);
  const std::size_t e =
      caps_.single_entitlement ? 0 : rng_.next_below(entitlements);
  const std::size_t k = rng_.next_below(2);
  const authz::Request request = bridge_->request_for(i, e, k, forbidden);
  const bool expected = !forbidden && bridge_->expect_permit(i, e);

  const auto t0 = Clock::now();
  const authz::Verdict verdict = surface_.decide(request);
  const double us = us_since(t0);
  hist.observe(us);
  overall_.observe(us);
  metrics.decide_us.observe(us);

  ++rep.requests;
  metrics.requests.inc();
  if (verdict.permitted()) {
    ++rep.permits;
    metrics.permits.inc();
  } else {
    ++rep.denies;
    metrics.denies.inc();
  }

  if (forbidden) {
    // Strict at any time: no epoch of any store ever granted this.
    ++rep.oracle_checks;
    metrics.oracle_checks.inc();
    if (verdict.permitted()) {
      record_violation(rep, "forbidden probe permitted: " + request.user +
                                " " + request.object_type + "/" +
                                request.permission);
    }
  } else if (verdict.permitted() != expected) {
    ++rep.stale;
    metrics.stale.inc();
  }
}

void Engine::record_violation(PhaseReport& rep, const std::string& what) {
  ++rep.oracle_violations;
  LoadMetrics::get().oracle_violations.inc();
  if (rep.violation_samples.size() < options_.max_violation_samples) {
    rep.violation_samples.push_back(what);
  }
}

void Engine::oracle_sweep(PhaseReport& rep) {
  // Settled: every decision point has converged on all admissions, so
  // ground truth is strict for granted actions too.
  const auto& touched = bridge_->touched_order();
  const std::size_t n = std::min(options_.oracle_sample, touched.size());
  // Stride so the sweep covers cold principals too, not just the Zipf
  // head that was touched first.
  const std::size_t stride = std::max<std::size_t>(1, touched.size() / n);
  auto& metrics = LoadMetrics::get();
  std::size_t swept = 0;
  for (std::size_t idx = 0; idx < touched.size() && swept < n;
       idx += stride, ++swept) {
    const std::size_t i = touched[idx];
    const std::size_t entitlements =
        caps_.single_entitlement ? 1 : bridge_->entitlement_count(i);
    for (std::size_t e = 0; e < entitlements; ++e) {
      const bool expected = bridge_->expect_permit(i, e);
      const authz::Verdict verdict =
          surface_.decide(bridge_->request_for(i, e, 0, false));
      ++rep.oracle_checks;
      metrics.oracle_checks.inc();
      if (verdict.permitted() != expected) {
        record_violation(
            rep, std::string("settled mismatch: ") + population_.user(i) +
                     " entitlement " + std::to_string(e) + " expected " +
                     (expected ? "permit" : "deny") + " got " +
                     (verdict.permitted() ? "permit" : "deny"));
      }
    }
    const authz::Verdict probe =
        surface_.decide(bridge_->request_for(i, 0, 0, true));
    ++rep.oracle_checks;
    metrics.oracle_checks.inc();
    if (probe.permitted()) {
      record_violation(rep, "settled forbidden probe permitted: " +
                                population_.user(i));
    }
  }
}

void Engine::run_adversary(const Phase& phase, PhaseReport& rep,
                           std::size_t tick) {
  switch (phase.adversary) {
    case Adversary::kNone:
      break;
    case Adversary::kRevocationStorm:
      adversary_revocation(phase, rep);
      break;
    case Adversary::kDelegationDepth:
      adversary_chain(phase, rep, tick);
      break;
    case Adversary::kReplicaFlap:
      if (caps_.supports_flap && surface_.flap(tick).ok()) ++rep.flaps;
      break;
    case Adversary::kMigrationStorm:
      adversary_migration(rep, tick);
      break;
  }
}

void Engine::adversary_revocation(const Phase& phase, PhaseReport& rep) {
  (void)rep;  // revocations are tallied from bridge stats at phase end
  auto& metrics = LoadMetrics::get();
  // Snapshot the victim pool: revocation does not extend touched_order,
  // but iterating a stable copy keeps the storm's draw sequence
  // independent of container growth mid-loop.
  const std::vector<std::size_t> pool = bridge_->touched_order();
  for (std::size_t i : pool) {
    if (bridge_->is_revoked(i)) continue;
    if (!rng_.chance(phase.adversary_fraction)) continue;
    bridge_->revoke_principal(i);
    metrics.revocations.inc();
  }
}

void Engine::adversary_chain(const Phase& phase, PhaseReport& rep,
                             std::size_t tick) {
  (void)tick;
  if (!caps_.supports_chains) return;
  const std::size_t round = chain_counter_++;
  const std::size_t depth = std::max<std::size_t>(2, phase.chain_depth);

  // Anchor the chain's authority on a fixed role template's grants.
  rbac::RoleInstance anchor{population_.domain_name(0),
                            population_.role_name(0),
                            {}};
  const std::string conditions =
      translate::render_instance_conditions(anchor);
  const auto quoted = [](const std::string& p) { return "\"" + p + "\""; };
  auto link_name = [&](std::size_t j) {
    return "Kchain" + std::to_string(round) + "_" + std::to_string(j);
  };

  std::vector<std::string> link_texts;
  std::string from = bridge_->admin_principal();
  for (std::size_t j = 0; j < depth; ++j) {
    const std::string to = link_name(j);
    auto credential = keynote::AssertionBuilder()
                          .authorizer(quoted(from))
                          .licensees(quoted(to))
                          .comment("delegation link " + std::to_string(j))
                          .conditions(conditions)
                          .build();
    if (!credential.ok()) {
      record_violation(rep, "chain link " + std::to_string(j) +
                                " failed to build");
      return;
    }
    link_texts.push_back(credential->to_text());
    if (!surface_.sink().admit(std::move(credential).take()).ok()) {
      record_violation(rep, "chain link " + std::to_string(j) +
                                " failed to admit");
      return;
    }
    from = to;
  }

  const rbac::PermissionGrant& action =
      population_.granted_action(anchor, 0);
  authz::Request request;
  request.user = "chain" + std::to_string(round);
  request.principal = link_name(depth - 1);
  request.domain = anchor.domain;
  request.role = anchor.role;
  request.object_type = action.object_type;
  request.permission = action.permission;

  auto& metrics = LoadMetrics::get();
  if (!surface_.settle(options_.settle_timeout).ok()) {
    record_violation(rep, "chain admission did not settle");
    return;
  }
  ++rep.chain_queries;
  ++rep.oracle_checks;
  metrics.oracle_checks.inc();
  if (!surface_.decide(request).permitted()) {
    record_violation(rep, "delegation chain depth " +
                              std::to_string(depth) +
                              " denied at the leaf");
  }

  // Cut a middle link: the whole suffix must lose authority.
  surface_.sink().revoke_matching(link_texts[depth / 2]);
  if (!surface_.settle(options_.settle_timeout).ok()) {
    record_violation(rep, "chain cut did not settle");
    return;
  }
  ++rep.chain_queries;
  ++rep.oracle_checks;
  metrics.oracle_checks.inc();
  if (surface_.decide(request).permitted()) {
    record_violation(rep, "cut delegation chain still permitted at the "
                          "leaf");
  }
}

void Engine::adversary_migration(PhaseReport& rep, std::size_t tick) {
  (void)tick;
  const std::size_t round = migration_counter_++;
  const std::string tag = std::to_string(round);

  // A COM+ catalogue with one application/role/user, migrated into an
  // EJB container through the RBAC interlingua — the paper's
  // heterogeneous-migration path, here run *under load*.
  middleware::com::Catalogue source("winY", "MigDomain" + tag);
  source.register_application({"migapp" + tag, "migration probe", {"m"}})
      .ok();
  source.define_role("Staff").ok();
  source.grant("Staff", "migapp" + tag, middleware::com::kAccess).ok();
  source.add_user_to_role("mig_user" + tag, "Staff").ok();
  middleware::ejb::Server target("hostX", "ejbsrv" + tag);
  auto migration = translate::migrate(source, target, {});
  if (!migration.ok()) {
    record_violation(rep, "migration failed: " + migration.error().message);
    return;
  }
  const rbac::Policy& commissioned = migration->commissioned;
  if (commissioned.grants().empty() ||
      commissioned.assignments().empty()) {
    record_violation(rep, "migration commissioned an empty policy");
    return;
  }

  // Admit the migrated policy as its own KeyNote root + credentials.
  translate::OpaqueDirectory directory;
  const std::string admin = "Kmigadmin" + tag;
  auto compiled = translate::compile_policy(commissioned, admin, directory);
  if (!compiled.ok()) {
    record_violation(rep, "migrated policy failed to compile");
    return;
  }
  std::vector<std::string> admitted;
  admitted.push_back(compiled->policy.to_text());
  if (!surface_.sink().admit_policy_text(admitted.back()).ok()) {
    record_violation(rep, "migrated policy root rejected");
    return;
  }
  for (auto& credential : compiled->membership_credentials) {
    admitted.push_back(credential.to_text());
    surface_.sink().admit(std::move(credential)).ok();
  }
  ++rep.migrations;

  // Strict probe derived from the commissioned rows themselves.
  const rbac::PermissionGrant grant = *commissioned.grants().begin();
  const rbac::RoleAssignment assignment =
      *commissioned.assignments().begin();
  authz::Request request;
  request.user = assignment.user;
  request.principal = directory.principal_of(assignment.user);
  request.domain = grant.domain;
  request.role = grant.role;
  request.object_type = grant.object_type;
  request.permission = grant.permission;

  auto& metrics = LoadMetrics::get();
  if (!surface_.settle(options_.settle_timeout).ok()) {
    record_violation(rep, "migration admission did not settle");
    return;
  }
  if (caps_.supports_chains) {  // principal-direct surfaces only
    ++rep.oracle_checks;
    metrics.oracle_checks.inc();
    if (!surface_.decide(request).permitted()) {
      record_violation(rep, "migrated user denied after settle");
    }
  }

  // Retract the migrated policy; the grant must die with it.
  for (const auto& text : admitted) {
    surface_.sink().revoke_matching(text);
  }
  if (!surface_.settle(options_.settle_timeout).ok()) {
    record_violation(rep, "migration retraction did not settle");
    return;
  }
  if (caps_.supports_chains) {
    ++rep.oracle_checks;
    metrics.oracle_checks.inc();
    if (surface_.decide(request).permitted()) {
      record_violation(rep, "retracted migration still permitted");
    }
  }
}

}  // namespace mwsec::load
