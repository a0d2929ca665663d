#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "util/strings.hpp"

namespace mwsec::obs {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const Histogram::Snapshot* find_histogram(const Registry::Snapshot& snapshot,
                                          std::string_view name) {
  for (const auto& [n, h] : snapshot.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

SloResult eval_one(const SloObjective& o, const Registry::Snapshot& snapshot,
                   std::span<const SpanRecord> spans) {
  SloResult r;
  r.name = o.name;
  r.kind = slo_kind_name(o.kind);
  r.threshold = o.threshold;
  switch (o.kind) {
    case SloObjective::Kind::kHistogramP99Max: {
      const Histogram::Snapshot* h = find_histogram(snapshot, o.metric);
      if (h == nullptr || h->count == 0) {
        r.pass = false;
        r.detail = "histogram '" + o.metric + "' missing or empty";
        return r;
      }
      r.value = h->p99;
      r.pass = r.value <= o.threshold;
      r.detail = "p99 of " + std::to_string(h->count) + " observations";
      return r;
    }
    case SloObjective::Kind::kHitRateMin: {
      const auto hits = snapshot.counter_or_zero(o.metric);
      const auto misses = snapshot.counter_or_zero(o.metric2);
      if (hits + misses == 0) {
        r.pass = false;
        r.detail = "no lookups recorded (" + o.metric + " + " + o.metric2 +
                   " == 0)";
        return r;
      }
      r.value = snapshot.hit_rate(o.metric, o.metric2);
      r.pass = r.value >= o.threshold;
      r.detail = std::to_string(hits) + " hits / " + std::to_string(misses) +
                 " misses";
      return r;
    }
    case SloObjective::Kind::kCounterAtLeast: {
      r.value = double(snapshot.counter_or_zero(o.metric));
      r.pass = r.value >= o.threshold;
      r.detail = "counter " + o.metric;
      return r;
    }
    case SloObjective::Kind::kCounterAtMost: {
      r.value = double(snapshot.counter_or_zero(o.metric));
      r.pass = r.value <= o.threshold;
      r.detail = "counter " + o.metric;
      return r;
    }
    case SloObjective::Kind::kSpanGapMax: {
      // Earliest cause-span start per trace; latest effect-span end per
      // trace; the lag is their gap, maximised over all traces that have
      // both. No pair anywhere → fail (the propagation never completed,
      // or tracing was off — either way the claim is unsupported).
      std::map<std::uint64_t, std::uint64_t> cause_start;
      std::map<std::uint64_t, std::uint64_t> effect_end;
      for (const SpanRecord& s : spans) {
        if (s.trace_id == 0) continue;
        if (s.name == o.metric) {
          auto [it, fresh] = cause_start.emplace(s.trace_id, s.start_ns);
          if (!fresh) it->second = std::min(it->second, s.start_ns);
        } else if (s.name == o.metric2) {
          const std::uint64_t end = s.start_ns + s.duration_ns;
          auto [it, fresh] = effect_end.emplace(s.trace_id, end);
          if (!fresh) it->second = std::max(it->second, end);
        }
      }
      std::size_t pairs = 0;
      double max_us = 0;
      for (const auto& [trace, start] : cause_start) {
        auto it = effect_end.find(trace);
        if (it == effect_end.end()) continue;
        ++pairs;
        const double us =
            it->second > start ? double(it->second - start) / 1000.0 : 0.0;
        max_us = std::max(max_us, us);
      }
      if (pairs == 0) {
        r.pass = false;
        r.detail = "no trace pairs '" + o.metric + "' -> '" + o.metric2 + "'";
        return r;
      }
      r.value = max_us;
      r.pass = max_us <= o.threshold;
      r.detail = "max over " + std::to_string(pairs) + " trace(s)";
      return r;
    }
  }
  r.detail = "unknown objective kind";
  return r;
}

}  // namespace

const char* slo_kind_name(SloObjective::Kind kind) {
  switch (kind) {
    case SloObjective::Kind::kHistogramP99Max: return "histogram_p99_max";
    case SloObjective::Kind::kHitRateMin: return "hit_rate_min";
    case SloObjective::Kind::kCounterAtLeast: return "counter_at_least";
    case SloObjective::Kind::kCounterAtMost: return "counter_at_most";
    case SloObjective::Kind::kSpanGapMax: return "span_gap_max_us";
  }
  return "?";
}

bool SloReport::pass() const {
  return std::all_of(results.begin(), results.end(),
                     [](const SloResult& r) { return r.pass; });
}

std::string SloReport::to_json() const {
  std::ostringstream os;
  os << "{\"pass\":" << (pass() ? "true" : "false") << ",\"objectives\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 0) os << ",";
    const SloResult& r = results[i];
    os << "{\"name\":\"" << util::json_escape(r.name) << "\",\"kind\":\""
       << r.kind << "\",\"pass\":" << (r.pass ? "true" : "false")
       << ",\"value\":" << fmt_double(r.value)
       << ",\"threshold\":" << fmt_double(r.threshold) << ",\"detail\":\""
       << util::json_escape(r.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

SloReport evaluate_slo(std::span<const SloObjective> objectives,
                       const Registry::Snapshot& snapshot,
                       std::span<const SpanRecord> spans) {
  SloReport report;
  report.results.reserve(objectives.size());
  for (const SloObjective& o : objectives) {
    report.results.push_back(eval_one(o, snapshot, spans));
  }
  return report;
}

std::vector<SloObjective> default_slo_objectives() {
  using Kind = SloObjective::Kind;
  return {
      // Cached-path decide latency (the CachingAuthorizer records every
      // decide into authz.decide_us). Generous for a loaded CI container;
      // tight enough to catch an accidental O(store) regression.
      {"decide_p99_us", Kind::kHistogramP99Max, "authz.decide_us", "", 5000.0},
      // A revocation published at the authority flips cached verdicts at
      // the subscribed masters within half a second (poll interval is
      // single-digit ms in the scenario; this bounds queueing tails).
      {"revoke_propagation_us", Kind::kSpanGapMax, "sync.publish",
       "authz.verdict_flip", 500'000.0},
      // The scheduler's per-(principal, target) decision cache earns its
      // keep: repeated waves mostly hit.
      {"decision_cache_hit_rate", Kind::kHitRateMin,
       "webcom.decision_cache_hits", "webcom.decision_cache_misses", 0.5},
      // Denied-correctness: after the revocation, the master actually
      // denied work (the flip is observable, not just traced) …
      {"denied_after_revocation", Kind::kCounterAtLeast,
       "webcom.tasks_denied_by_master", "", 1.0},
      // … and no replica rejected a delta getting there.
      {"replica_apply_errors", Kind::kCounterAtMost, "sync.apply_errors", "",
       0.0},
  };
}

}  // namespace mwsec::obs
