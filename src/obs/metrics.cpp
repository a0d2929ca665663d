#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace mwsec::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

void atomic_add_double(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Stripe index for the calling thread: a dense per-thread counter (wraps
/// modulo the stripe count) distributes threads evenly where hashing
/// std::thread::id tends to collide.
std::size_t this_thread_stripe(std::size_t stripes) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine & (stripes - 1);
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  for (auto& stripe : stripes_) {
    stripe.buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    // ±inf sentinels make min/max pure CAS-min/max with no racy
    // "first observation" special case; snapshot() skips stripes whose
    // count is 0, so the sentinels never leak out.
    stripe.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    stripe.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
  }
}

std::vector<double> Histogram::latency_bounds_us() {
  std::vector<double> bounds;
  for (double b = 0.1; b < 20e6; b *= 2) bounds.push_back(b);
  return bounds;  // 0.1, 0.2, 0.4 ... ~13.4e6 µs
}

void Histogram::observe(double v) {
  if (!metrics_enabled()) return;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  auto idx = static_cast<std::size_t>(it - bounds_.begin());
  Stripe& stripe = stripes_[this_thread_stripe(kStripes)];
  stripe.buckets[idx].fetch_add(1, std::memory_order_relaxed);
  atomic_min_double(stripe.min, v);
  atomic_max_double(stripe.max, v);
  atomic_add_double(stripe.sum, v);
  // Count last: a snapshot that sees count > 0 is guaranteed at least one
  // fully recorded min/max, so the ±inf sentinels stay internal.
  stripe.count.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& stripe : stripes_) {
    n += stripe.count.load(std::memory_order_relaxed);
  }
  return n;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.buckets.assign(bounds_.size() + 1, 0);
  bool first = true;
  for (const auto& stripe : stripes_) {
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      const auto b = stripe.buckets[i].load(std::memory_order_relaxed);
      s.buckets[i] += b;
      s.count += b;
    }
    s.sum += stripe.sum.load(std::memory_order_relaxed);
    // min/max only from stripes that recorded something, so idle stripes'
    // zero-initialised extremes don't pollute the merge; an empty
    // histogram keeps min = max = 0 as before.
    if (stripe.count.load(std::memory_order_relaxed) == 0) continue;
    const double lo = stripe.min.load(std::memory_order_relaxed);
    const double hi = stripe.max.load(std::memory_order_relaxed);
    s.min = first ? lo : std::min(s.min, lo);
    s.max = first ? hi : std::max(s.max, hi);
    first = false;
  }

  // Quantile: find the bucket holding the q-th observation, interpolate
  // linearly inside it. The overflow bucket reports the observed max.
  auto quantile = [&](double q) -> double {
    if (s.count == 0) return 0;
    auto target = static_cast<std::uint64_t>(q * double(s.count));
    if (target < 1) target = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (s.buckets[i] == 0) continue;
      std::uint64_t before = cum;
      cum += s.buckets[i];
      if (cum < target) continue;
      if (i >= s.bounds.size()) return s.max;
      double lo = i == 0 ? std::min(s.min, s.bounds[0]) : s.bounds[i - 1];
      double hi = s.bounds[i];
      double frac = double(target - before) / double(s.buckets[i]);
      return lo + (hi - lo) * frac;
    }
    return s.max;
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& stripe : stripes_) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      stripe.buckets[i].store(0, std::memory_order_relaxed);
    }
    stripe.count.store(0, std::memory_order_relaxed);
    stripe.sum.store(0, std::memory_order_relaxed);
    stripe.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    stripe.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::latency_bounds_us();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry::Snapshot Registry::snapshot() const {
  std::scoped_lock lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->snapshot());
  }
  return s;
}

std::uint64_t Registry::Snapshot::counter_or_zero(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double Registry::Snapshot::hit_rate(std::string_view hits,
                                    std::string_view misses) const {
  double h = double(counter_or_zero(hits));
  double m = double(counter_or_zero(misses));
  return h + m == 0 ? 0 : h / (h + m);
}

// ---------------------------------------------------------------------------
// Rendering

std::string render_text(const Registry::Snapshot& snapshot) {
  std::ostringstream os;
  for (const auto& [name, v] : snapshot.counters) {
    os << name << " " << v << "\n";
  }
  for (const auto& [name, v] : snapshot.gauges) {
    os << name << " " << v << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    os << name << " count=" << h.count << " mean=" << fmt_double(h.mean())
       << " p50=" << fmt_double(h.p50) << " p95=" << fmt_double(h.p95)
       << " p99=" << fmt_double(h.p99) << " max=" << fmt_double(h.max)
       << "\n";
  }
  return os.str();
}

std::string render_json(const Registry::Snapshot& snapshot) {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << util::json_escape(snapshot.counters[i].first)
       << "\":" << snapshot.counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << util::json_escape(snapshot.gauges[i].first)
       << "\":" << snapshot.gauges[i].second;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i != 0) os << ",";
    const auto& [name, h] = snapshot.histograms[i];
    os << "\"" << util::json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << fmt_double(h.sum)
       << ",\"mean\":" << fmt_double(h.mean())
       << ",\"min\":" << fmt_double(h.min) << ",\"max\":" << fmt_double(h.max)
       << ",\"p50\":" << fmt_double(h.p50) << ",\"p95\":" << fmt_double(h.p95)
       << ",\"p99\":" << fmt_double(h.p99) << "}";
  }
  os << "}}";
  return os.str();
}

bool append_snapshot_jsonl(const std::string& path, std::string_view label,
                           const Registry::Snapshot& snapshot) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::string body = render_json(snapshot);
  // Splice the label into the leading object: {"label":"...", <body sans {>.
  std::string line = "{\"label\":\"" + util::json_escape(label) + "\"," +
                     body.substr(1) + "\n";
  bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace mwsec::obs
