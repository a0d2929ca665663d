// The mwsec end-to-end benchmark (run it through run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 sets the workload up three times (setup_s is the median),
// runs the plan untraced and reports the end-to-end metrics. --trace 1
// runs the plan untraced and then traced on a fresh set-up, prints the
// per-layer table and reports the per-layer metrics; the spans go to
// <trace-dir>/<workload>-seed<n>.spans. Both print the plan digest, the
// fixed-work counts and the regime report before the last line, which is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "load/session_bridge.hpp"
#include "obs/metrics.hpp"
#include "percentile.hpp"
#include "plan.hpp"
#include "rigs.hpp"
#include "runner.hpp"
#include "trace.hpp"
#include "translate/rbac_to_keynote.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

template <typename T>
double pct(std::vector<T> samples, double q) {
  return percentile(samples, q);
}

void check(const mwsec::Status& s, const char* what) {
  if (!s.ok()) {
    throw std::runtime_error(std::string(what) + ": " + s.error().message);
  }
}

// ---------------------------------------------------------------------------
// Set-up: everything a user pays before the first measured op.

struct Deployment {
  Deployment(const WorkloadSpec& spec, std::uint64_t seed)
      : population(population_options(spec)),
        rig(make_rig(spec.surface, seed)) {}

  mwsec::load::Population population;
  std::unique_ptr<Rig> rig;
  /// Declared last: it refers to the population and the rig.
  std::unique_ptr<mwsec::load::SessionBridge> bridge;
};

bool webcom(const WorkloadSpec& spec) {
  return spec.surface == SurfaceKind::kWebcom;
}

std::unique_ptr<Deployment> set_up(const WorkloadSpec& spec, const Plan& plan,
                                   std::uint64_t seed, Samples& warmup) {
  auto d = std::make_unique<Deployment>(spec, seed);
  d->rig->begin_bulk();
  mwsec::load::SessionBridgeOptions bopts;
  // The scheduler's requests carry only the fixed Figure 5 attributes.
  bopts.strip_params = webcom(spec);
  d->bridge = std::make_unique<mwsec::load::SessionBridge>(d->population,
                                                           *d->rig, bopts);
  check(d->bridge->install_policy_root(), "policy root");
  for (const auto& [i, e] : plan.initial) {
    check(d->bridge->activate(i, e), "initial grant");
  }
  for (std::size_t i = 0; i < spec.principals; ++i) {
    d->bridge->entitlement_count(i);  // open every principal's session
  }
  check(d->rig->finish_setup(*d->bridge, d->population), "set-up");
  Runner(*d->rig, *d->bridge, plan, webcom(spec))
      .run(plan.warmup.begin(), plan.warmup.end(), warmup);
  return d;
}

// ---------------------------------------------------------------------------
// One pass over the plan's traffic and write-probe phases.

/// The traffic is timed in this many equal slices of ops; throughput
/// and CPU per op are the medians over the slices, so a short stall of
/// the machine moves one slice, not the result.
constexpr std::size_t kSlices = 10;

struct Pass {
  Samples samples;
  std::vector<double> slice_ops_per_s;
  std::vector<double> slice_cpu_us_per_op;
  double wall_s = 0;  ///< traffic and write-probe phases
  Counts counts;
  std::size_t live_start = 0;
  std::size_t live_end = 0;

  double ops_per_s() const { return pct(slice_ops_per_s, 50); }
  double cpu_us_per_op() const { return pct(slice_cpu_us_per_op, 50); }
};

Pass run_pass(Deployment& d, const WorkloadSpec& spec, const Plan& plan,
              Tracer& tracer) {
  Pass p;
  p.samples.decide_us.reserve(plan.traffic.size());
  p.samples.decide_slow.reserve(plan.traffic.size());
  d.rig->set_tracer(tracer);
  Runner runner(*d.rig, *d.bridge, plan, webcom(spec));
  const Counts before = d.rig->counts();
  p.live_start = d.rig->live_credentials();

  const auto t0 = Clock::now();
  const std::size_t n = plan.traffic.size();
  for (std::size_t k = 0; k < kSlices; ++k) {
    const auto first = plan.traffic.begin() + n * k / kSlices;
    const auto last = plan.traffic.begin() + n * (k + 1) / kSlices;
    if (first == last) continue;
    const double ops = static_cast<double>(last - first);
    const double cpu0 = cpu_seconds();
    const auto s0 = Clock::now();
    runner.run(first, last, p.samples);
    p.slice_ops_per_s.push_back(ops / seconds_since(s0));
    p.slice_cpu_us_per_op.push_back((cpu_seconds() - cpu0) * 1e6 / ops);
  }
  runner.run(plan.probes.begin(), plan.probes.end(), p.samples);
  p.wall_s = seconds_since(t0);

  p.counts = d.rig->counts() - before;
  p.live_end = d.rig->live_credentials();
  return p;
}

void print_failures(const char* phase, const Samples& s) {
  for (const auto& f : s.failures) {
    std::fprintf(stderr, "perfbench: %s failure: %s\n", phase, f.c_str());
  }
}

// ---------------------------------------------------------------------------
// Reports.

void print_plan(const WorkloadSpec& spec, const Args& args, const Plan& plan) {
  std::printf(
      "plan: workload=%s seed=%llu seconds=%g initial_grants=%zu "
      "warmup_ops=%zu traffic_ops=%zu probe_ops=%zu digest=%016llx\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
      plan.initial.size(), plan.warmup.size(), plan.traffic.size(),
      plan.probes.size(), static_cast<unsigned long long>(plan.digest));
}

/// The counts that must repeat exactly for one seed.
void print_fixed_work(const Plan& plan, const Pass& pass) {
  const auto& c = pass.counts;
  std::printf(
      "fixed-work: digest=%016llx verdicts=%016llx ops=%llu cache_hits=%llu "
      "cache_misses=%llu rebuilds=%llu deltas_published=%llu "
      "tasks_dispatched=%llu\n",
      static_cast<unsigned long long>(plan.digest),
      static_cast<unsigned long long>(pass.samples.verdicts),
      static_cast<unsigned long long>(pass.samples.attempted),
      static_cast<unsigned long long>(c.cache_hits),
      static_cast<unsigned long long>(c.cache_misses),
      static_cast<unsigned long long>(c.rebuilds),
      static_cast<unsigned long long>(c.deltas_published),
      static_cast<unsigned long long>(c.tasks_dispatched));
}

/// Which cost regime the samples around a percentile's rank belong to,
/// and how pure that neighbourhood is (1.0 = a single regime).
struct RegimeAt {
  bool slow;
  double purity;
};

/// `sorted`: (latency, slow) per decide, ascending.
RegimeAt regime_at(const std::vector<std::pair<double, std::uint8_t>>& sorted,
                   double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return {false, 0};
  const std::size_t rank = nearest_rank(n, q) - 1;
  const std::size_t half = std::max<std::size_t>(5, n / 200);
  const std::size_t lo = rank > half ? rank - half : 0;
  const std::size_t hi = std::min(n, rank + half + 1);
  std::size_t slow = 0;
  for (std::size_t k = lo; k < hi; ++k) slow += sorted[k].second;
  const double share = ratio(static_cast<double>(slow),
                             static_cast<double>(hi - lo));
  return {share >= 0.5, std::max(share, 1 - share)};
}

void print_slices(const Pass& pass) {
  std::printf("slices: ops_per_s");
  for (double v : pass.slice_ops_per_s) std::printf(" %.1f", v);
  std::printf("\n");
}

void print_regimes(const WorkloadSpec& spec, const Pass& pass) {
  const auto& s = pass.samples;
  const double decides = static_cast<double>(s.decides);
  double slow = 0;
  for (auto v : s.decide_slow) slow += v;
  const char* fast_name = webcom(spec) ? "deny" : "hit";
  const char* slow_name = webcom(spec) ? "permit" : "miss";
  std::printf(
      "regime: decides=%llu permit=%.4f deny=%.4f forbidden=%.4f "
      "decide_%s_share=%.4f cache_hit_ratio=%.4f writes_per_op=%.4f "
      "live_credentials_start=%zu live_credentials_end=%zu fail_ratio=%.6f\n",
      static_cast<unsigned long long>(s.decides),
      ratio(static_cast<double>(s.permits), decides),
      ratio(decides - static_cast<double>(s.permits), decides),
      ratio(static_cast<double>(s.forbidden), decides), fast_name,
      ratio(decides - slow, decides),
      ratio(static_cast<double>(pass.counts.cache_hits),
            static_cast<double>(pass.counts.cache_hits +
                                pass.counts.cache_misses)),
      ratio(static_cast<double>(s.writes), static_cast<double>(s.attempted)),
      pass.live_start, pass.live_end,
      ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)));
  std::vector<std::pair<double, std::uint8_t>> sorted(s.decide_us.size());
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    sorted[k] = {s.decide_us[k], s.decide_slow[k]};
  }
  std::sort(sorted.begin(), sorted.end());
  for (double q : {50.0, 99.0}) {
    const RegimeAt r = regime_at(sorted, q);
    std::printf("regime: decide_p%g in %s, neighbourhood purity %.3f\n", q,
                r.slow ? slow_name : fast_name, r.purity);
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k != 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " +
           json_number(metrics[k].value) + ", \"unit\": \"" +
           metrics[k].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int untraced_run(const WorkloadSpec& spec, const Plan& plan,
                 const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  Samples warmup;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();  // free the previous deployment before timing the next
    const auto t0 = Clock::now();
    d = set_up(spec, plan, args.seed, warmup);
    setup_s.push_back(seconds_since(t0));
  }
  Tracer off(false);
  const Pass pass = run_pass(*d, spec, plan, off);
  print_failures("warm-up", warmup);
  print_failures("measured", pass.samples);
  print_fixed_work(plan, pass);
  print_regimes(spec, pass);
  print_slices(pass);

  const auto& s = pass.samples;
  bool correct = s.failed == 0 && warmup.failed == 0;
  struct Quantile {
    const char* name;
    const std::vector<double>* samples;
    double q;
    const char* unit;
  };
  // decide p99 is printed but not reported: on churn and fanout it lies
  // in the cold-evaluation tail, whose run-to-run spread on a shared host
  // (0.18-0.33 of the median) is wider than any bound a metric may have.
  const ChunkedPercentile p99 = chunked_percentile(s.decide_us, 99);
  std::printf("tail: decide_p99_us=%.3f chunks=%zu%s\n", p99.value,
              p99.chunks, p99.resolvable ? "" : " (<10 beyond)");
  const Quantile quantiles[] = {
      {"decide_p50_us", &s.decide_us, 50, "us"},
      {"grant_p50_us", &s.grant_us, 50, "us"},
      {"grant_p90_us", &s.grant_us, 90, "us"},
      {"revoke_p50_us", &s.revoke_us, 50, "us"},
      {"revoke_p90_us", &s.revoke_us, 90, "us"},
      {"storm_p50_ms", &s.storm_ms, 50, "ms"},
  };
  std::vector<Metric> metrics = {
      {"setup_s", pct(setup_s, 50), "s"},
      {"ops_per_s", pass.ops_per_s(), "1/s"},
      {"cpu_us_per_op", pass.cpu_us_per_op(), "us"},
  };
  for (const auto& q : quantiles) {
    const ChunkedPercentile p = chunked_percentile(*q.samples, q.q);
    const std::size_t n = q.samples->size();
    std::printf("samples: %s n=%zu chunks=%zu beyond_per_chunk=%zu\n", q.name,
                n, p.chunks, samples_beyond(n / p.chunks, q.q));
    if (!p.resolvable) {
      std::fprintf(stderr,
                   "perfbench: %s has %zu samples, fewer than %zu beyond "
                   "its rank\n",
                   q.name, n, kMinBeyond);
      correct = false;
    }
    metrics.push_back({q.name, p.value, q.unit});
  }
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_result(correct, s.attempted, s.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer budget.

std::uint64_t registry_count(const char* name) {
  return mwsec::obs::Registry::global().counter(name).value();
}

/// translate::instance_credential timed on the inputs of every grant in
/// the plan, in plan order, after the traced pass: the bridge mints
/// internally, so its mint cost is measured on an identical mint.
std::vector<double> mint_samples(const Deployment& d, const WorkloadSpec& spec,
                                 const Plan& plan) {
  std::vector<double> out;
  const std::string admin = d.bridge->admin_principal();
  for (const auto* phase : {&plan.traffic, &plan.probes}) {
    for (const Op& op : *phase) {
      if (op.kind != OpKind::kGrant) continue;
      auto instance = d.population.entitlements(op.principal)[op.entitlement];
      if (webcom(spec)) instance.params.clear();
      const std::string principal = d.population.principal(op.principal);
      const auto t0 = Clock::now();
      auto minted =
          mwsec::translate::instance_credential(admin, principal, instance);
      out.push_back(seconds_since(t0) * 1e6);
      if (!minted.ok()) throw std::runtime_error("mint calibration failed");
    }
  }
  return out;
}

void print_layer_table(const WorkloadSpec& spec, const TraceSummary& sum,
                       double wall_us, std::uint64_t ops) {
  std::printf("layer-table: workload=%s wall_ms=%.3f ops=%llu\n", spec.name,
              wall_us / 1e3, static_cast<unsigned long long>(ops));
  std::printf("  %-24s %-15s %9s %11s %11s %7s %10s %10s\n", "span", "layer",
              "count", "total_ms", "self_ms", "self%", "p50_us", "p99_us");
  for (std::size_t k = 0; k < kSpanNames; ++k) {
    const auto& s = sum.by_name[k];
    if (s.count == 0) continue;
    const auto name = static_cast<SpanName>(k);
    std::printf("  %-24s %-15s %9zu %11.3f %11.3f %6.2f%% %10.2f %10.2f%s\n",
                span_name(name), span_layer(name), s.count, s.total_us / 1e3,
                s.self_us / 1e3, 100 * ratio(s.self_us, wall_us),
                pct(s.dur_us, 50), pct(s.dur_us, 99),
                resolvable(s.count, 99) ? "" : " (p99: <10 beyond)");
  }
  const double unattributed = std::max(0.0, wall_us - sum.roots_us);
  std::printf("  %-24s %-15s %9s %11s %11.3f %6.2f%%\n", "unattributed", "",
              "", "", unattributed / 1e3, 100 * ratio(unattributed, wall_us));
}

int traced_run(const WorkloadSpec& spec, const Plan& plan, const Args& args) {
  bool correct = true;
  double untraced_ops_per_s = 0;
  {
    Samples warmup;
    auto d = set_up(spec, plan, args.seed, warmup);
    Tracer off(false);
    const Pass base = run_pass(*d, spec, plan, off);
    untraced_ops_per_s = base.ops_per_s();
    correct = correct && warmup.failed == 0 && base.samples.failed == 0;
  }

  Tracer tracer(true);
  Samples warmup;
  auto d = set_up(spec, plan, args.seed, warmup);
  const std::uint64_t queries0 = registry_count("keynote.queries");
  const std::uint64_t steps0 = registry_count("keynote.fixpoint_steps");
  const std::uint64_t memo_hits0 =
      registry_count("keynote.conditions_memo_hits");
  const std::uint64_t memo_misses0 =
      registry_count("keynote.conditions_memo_misses");
  mwsec::obs::set_metrics_enabled(true);
  const Pass pass = run_pass(*d, spec, plan, tracer);
  mwsec::obs::set_metrics_enabled(false);
  const double queries = registry_count("keynote.queries") - queries0;
  const double steps = registry_count("keynote.fixpoint_steps") - steps0;
  const double memo_hits =
      registry_count("keynote.conditions_memo_hits") - memo_hits0;
  const double memo_misses =
      registry_count("keynote.conditions_memo_misses") - memo_misses0;
  correct = correct && warmup.failed == 0 && pass.samples.failed == 0;
  print_failures("traced", pass.samples);
  print_fixed_work(plan, pass);
  print_regimes(spec, pass);

  const TraceSummary sum = summarize(tracer);
  const double wall_us = pass.wall_s * 1e6;
  const auto& s = pass.samples;
  print_layer_table(spec, sum, wall_us, s.attempted);
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  using enum SpanName;
  auto by = [&](SpanName n) -> const SpanStats& {
    return sum.by_name[static_cast<std::size_t>(n)];
  };
  auto dur = [&](SpanName n, double q) { return pct(by(n).dur_us, q); };
  const double writes = static_cast<double>(s.writes);
  auto per_write = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), writes);
  };
  // The net and webcom counts are per op of the workload that sends
  // messages: writes on replica-fanout, scheduled graphs on webcom.
  const auto& c = pass.counts;
  const bool fanout = spec.surface == SurfaceKind::kFanout;
  const double executes = static_cast<double>(by(kWebcomExecute).count);
  auto per_task = [&](std::uint64_t v) {
    return webcom(spec) ? ratio(static_cast<double>(v), executes) : 0.0;
  };

  // rbac.activate: the bridge's activation minus its admission child,
  // less the mint it performs (timed on an identical mint).
  const std::vector<double> mints = mint_samples(*d, spec, plan);
  const auto& activate = by(kBridgeActivate).self_samples_us;
  std::vector<double> rbac;
  for (std::size_t k = 0; k < std::min(mints.size(), activate.size()); ++k) {
    rbac.push_back(std::max(0.0, activate[k] - mints[k]));
  }
  double driver_us = 0;
  for (auto n : {kOpDecide, kOpGrant, kOpRevoke, kOpStorm}) {
    driver_us += by(n).self_us;
  }
  const double unattributed = std::max(0.0, wall_us - sum.roots_us);
  const double overhead = ratio(untraced_ops_per_s, pass.ops_per_s());
  std::printf(
      "trace: coverage=%.4f unattributed_share=%.4f overhead_ratio=%.4f\n",
      1 - ratio(unattributed, wall_us), ratio(unattributed, wall_us),
      overhead);

  const std::vector<Metric> metrics = {
      {"keynote.admit_p50_us", dur(kKeynoteAdmit, 50), "us"},
      {"keynote.admit_p90_us", dur(kKeynoteAdmit, 90), "us"},
      {"keynote.remove_p50_us", dur(kKeynoteRemove, 50), "us"},
      {"keynote.remove_p90_us", dur(kKeynoteRemove, 90), "us"},
      {"keynote.rebuild_p50_us", dur(kKeynoteRebuild, 50), "us"},
      {"keynote.rebuild_p90_us", dur(kKeynoteRebuild, 90), "us"},
      {"keynote.rebuilds_per_write", per_write(c.rebuilds), "count"},
      {"keynote.live_credentials", static_cast<double>(pass.live_end),
       "count"},
      {"keynote.query_p50_us", dur(kKeynoteQuery, 50), "us"},
      {"keynote.query_p99_us", dur(kKeynoteQuery, 99), "us"},
      {"keynote.fixpoint_steps_per_query", ratio(steps, queries), "count"},
      {"keynote.memo_hit_ratio", ratio(memo_hits, memo_hits + memo_misses),
       "ratio"},
      {"authz.hit_ratio",
       ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.cache_misses)),
       "ratio"},
      {"authz.hit_p50_us", pct(by(kAuthzDecide).leaf_us, 50), "us"},
      {"authz.flushes_per_write", per_write(c.cache_flushes), "count"},
      {"rbac.activate_p50_us", pct(rbac, 50), "us"},
      {"translate.mint_p50_us", pct(mints, 50), "us"},
      {"sync.publish_p50_us", dur(kSyncPublish, 50), "us"},
      {"sync.publish_p90_us", dur(kSyncPublish, 90), "us"},
      {"sync.converge_p50_us", dur(kSyncConverge, 50), "us"},
      {"sync.converge_p90_us", dur(kSyncConverge, 90), "us"},
      {"sync.deltas_per_write", per_write(c.deltas_published), "count"},
      {"sync.retransmits", static_cast<double>(c.retransmits), "count"},
      {"sync.snapshots_served", static_cast<double>(c.snapshots_served),
       "count"},
      {"sync.apply_errors", static_cast<double>(c.apply_errors), "count"},
      {"net.messages_per_write", fanout ? per_write(c.messages) : 0, "count"},
      {"net.bytes_per_write", fanout ? per_write(c.bytes) : 0, "bytes"},
      {"net.messages_per_task", per_task(c.messages), "count"},
      {"net.undeliverable", static_cast<double>(c.undeliverable), "count"},
      {"webcom.execute_p50_us", dur(kWebcomExecute, 50), "us"},
      {"webcom.execute_p99_us", dur(kWebcomExecute, 99), "us"},
      {"webcom.queries_per_task", per_task(c.cache_misses), "count"},
      {"webcom.timeouts", static_cast<double>(c.task_timeouts), "count"},
      {"webcom.client_rejections", static_cast<double>(c.client_rejections),
       "count"},
      {"driver.us_per_op", ratio(driver_us, static_cast<double>(s.attempted)),
       "us"},
      {"trace.unattributed_share", ratio(unattributed, wall_us), "ratio"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };
  print_result(correct, s.attempted, s.failed, metrics);
  return 0;
}

/// Keep this thread, and every thread started after it, on the last CPU
/// the process may use. Every workload runs this way. The replicated and
/// WebCom surfaces hand each op between threads several times; on a
/// virtual machine a hand-off to an idle CPU waits for a host wake-up
/// whose latency varies several-fold with the host's load, while on one
/// CPU it is a context switch. The work is the same; only its spread
/// across CPUs is given up.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      std::fprintf(stderr, "perfbench: cannot pin to cpu %d\n", cpu);
    }
    return;
  }
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const std::string value = argv[k + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  pin_to_one_cpu();
  try {
    const mwsec::load::Population population(population_options(*spec));
    const Plan plan = make_plan(*spec, population, args.seed, args.seconds);
    print_plan(*spec, args, plan);
    return args.trace ? traced_run(*spec, plan, args)
                      : untraced_run(*spec, plan, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
