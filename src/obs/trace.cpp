#include "obs/trace.hpp"

#include <sstream>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace mwsec::obs {

namespace {

/// One steady-clock origin per process (fixed at first use). Every span
/// timestamp is relative to this, never to a tracer's creation time —
/// components construct tracers at different moments, and per-tracer
/// epochs made cross-component trees unorderable.
std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

thread_local TraceContext t_current_context;

}  // namespace

std::uint64_t process_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

TraceContext current_context() { return t_current_context; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx)
    : saved_(t_current_context) {
  t_current_context = ctx;
  util::set_current_trace_id(ctx.trace_id);
}

ScopedTraceContext::~ScopedTraceContext() {
  t_current_context = saved_;
  util::set_current_trace_id(saved_.trace_id);
}

const std::string* SpanRecord::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string SpanRecord::to_json() const {
  std::ostringstream os;
  os << "{\"trace_id\":" << trace_id << ",\"id\":" << id
     << ",\"parent\":" << parent << ",\"name\":\"" << util::json_escape(name)
     << "\",\"start_ns\":" << start_ns << ",\"duration_ns\":" << duration_ns
     << ",\"status\":\"" << util::json_escape(status) << "\"";
  if (!attrs.empty()) {
    os << ",\"attrs\":{";
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (i != 0) os << ",";
      os << "\"" << util::json_escape(attrs[i].first) << "\":\""
         << util::json_escape(attrs[i].second) << "\"";
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

Tracer::Tracer() { process_epoch(); }

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

void Tracer::set_capacity(std::size_t capacity) {
  std::scoped_lock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (records_.size() > capacity_) records_.pop_front();
}

void Tracer::Span::set_attr(std::string_view key, std::string_view value) {
  if (rec_ == nullptr) return;
  for (auto& [k, v] : rec_->attrs) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  rec_->attrs.emplace_back(std::string(key), std::string(value));
}

void Tracer::Span::set_status(std::string_view status) {
  if (rec_ == nullptr) return;
  rec_->status = std::string(status);
}

Tracer::Span Tracer::Span::child(std::string name) {
  if (tracer_ == nullptr) return {};
  return tracer_->make_span(std::move(name), rec_->id, rec_->trace_id);
}

void Tracer::Span::finish() {
  if (tracer_ == nullptr) return;
  auto now = std::chrono::steady_clock::now();
  rec_->duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
          .count());
  Tracer* t = tracer_;
  tracer_ = nullptr;
  t->record(std::move(*rec_));
  rec_.reset();
}

Tracer::Span Tracer::root(std::string name) {
  if (!enabled()) return {};
  return make_span(std::move(name), 0, 0);
}

Tracer::Span Tracer::join(std::string name, TraceContext ctx) {
  if (!enabled()) return {};
  if (!ctx.valid()) return make_span(std::move(name), 0, 0);
  return make_span(std::move(name), ctx.span_id, ctx.trace_id);
}

Tracer::Span Tracer::start(std::string name) {
  return join(std::move(name), current_context());
}

Tracer::Span Tracer::make_span(std::string name, std::uint64_t parent,
                               std::uint64_t trace) {
  Span span;
  span.tracer_ = this;
  span.rec_ = std::make_unique<SpanRecord>();
  span.rec_->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // A root starts a new trace named after itself.
  span.rec_->trace_id = trace != 0 ? trace : span.rec_->id;
  span.rec_->parent = parent;
  span.rec_->name = std::move(name);
  span.start_ = std::chrono::steady_clock::now();
  span.rec_->start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(span.start_ -
                                                           process_epoch())
          .count());
  return span;
}

void Tracer::record(SpanRecord rec) {
  std::scoped_lock lock(mu_);
  for (const auto& [id, sink] : sinks_) sink(rec);
  records_.push_back(std::move(rec));
  while (records_.size() > capacity_) records_.pop_front();
}

std::uint64_t Tracer::add_sink(Sink sink) {
  std::scoped_lock lock(mu_);
  auto id = next_sink_id_++;
  sinks_.emplace_back(id, std::move(sink));
  return id;
}

void Tracer::remove_sink(std::uint64_t sink_id) {
  std::scoped_lock lock(mu_);
  std::erase_if(sinks_,
                [&](const auto& entry) { return entry.first == sink_id; });
}

std::vector<SpanRecord> Tracer::records() const {
  std::scoped_lock lock(mu_);
  return {records_.begin(), records_.end()};
}

std::string Tracer::to_jsonl() const {
  std::scoped_lock lock(mu_);
  std::string out;
  for (const auto& rec : records_) {
    out += rec.to_json();
    out += "\n";
  }
  return out;
}

std::size_t Tracer::size() const {
  std::scoped_lock lock(mu_);
  return records_.size();
}

void Tracer::clear() {
  std::scoped_lock lock(mu_);
  records_.clear();
}

}  // namespace mwsec::obs
