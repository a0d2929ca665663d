#include "trace.hpp"

#include <cstdio>
#include <limits>
#include <memory>

namespace perfbench {

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<NameInfo, kSpanNames> kNames = {{
    {"op.decide", "driver"},
    {"op.grant", "driver"},
    {"op.revoke", "driver"},
    {"op.storm", "driver"},
    {"authz.decide", "authz"},
    {"settle.probe", "authz"},
    {"keynote.query", "keynote"},
    {"keynote.admit", "keynote"},
    {"keynote.remove", "keynote"},
    {"keynote.remove_licensee", "keynote"},
    {"keynote.rebuild", "keynote"},
    {"bridge.activate", "rbac+translate"},
    {"bridge.deactivate", "rbac+translate"},
    {"bridge.revoke", "rbac"},
    {"sync.publish", "sync"},
    {"sync.converge", "sync"},
    {"webcom.execute", "webcom"},
}};

}  // namespace

const char* span_name(SpanName name) {
  return kNames[static_cast<std::size_t>(name)].name;
}

const char* span_layer(SpanName name) {
  return kNames[static_cast<std::size_t>(name)].layer;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint32_t Tracer::open(SpanName name) {
  const auto index = static_cast<std::uint32_t>(records_.size());
  const std::uint32_t distance = open_.empty() ? 0 : index - open_.back();
  Record r;
  r.link = (distance << 8) | static_cast<std::uint32_t>(name);
  open_.push_back(index);
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  records_.push_back(r);
  return index;
}

void Tracer::close(std::uint32_t index) {
  const std::int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  Record& r = records_[index];
  const std::int64_t dur = end_ns - r.start_ns;
  r.dur_ns = static_cast<std::uint32_t>(std::min<std::int64_t>(
      dur, std::numeric_limits<std::uint32_t>::max()));
  open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "perfbench-spans v1 records=%zu names=",
               records_.size());
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    std::fprintf(f.get(), "%s%s", i == 0 ? "" : ",", kNames[i].name);
  }
  std::fputc('\n', f.get());
  return std::fwrite(records_.data(), sizeof(Record), records_.size(),
                     f.get()) == records_.size();
}

TraceSummary summarize(const Tracer& tracer) {
  const auto& records = tracer.records();
  std::vector<std::uint64_t> child_ns(records.size(), 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (const auto d = records[i].parent_distance(); d != 0) {
      child_ns[i - d] += records[i].dur_ns;
    }
  }
  TraceSummary out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    SpanStats& s = out.by_name[static_cast<std::size_t>(r.name())];
    const double dur = r.dur_ns / 1e3;
    const double self =
        (r.dur_ns - std::min<std::uint64_t>(r.dur_ns, child_ns[i])) / 1e3;
    ++s.count;
    s.total_us += dur;
    s.self_us += self;
    s.dur_us.push_back(static_cast<float>(dur));
    s.self_samples_us.push_back(static_cast<float>(self));
    if (child_ns[i] == 0) s.leaf_us.push_back(static_cast<float>(dur));
    if (r.parent_distance() == 0) out.roots_us += dur;
  }
  return out;
}

}  // namespace perfbench
