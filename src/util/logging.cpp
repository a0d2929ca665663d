#include "util/logging.hpp"

#include <cstdio>

namespace mwsec::util {

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
    default: return "?";
  }
}
thread_local std::uint64_t t_trace_id = 0;

}  // namespace

std::uint32_t this_thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

void set_current_trace_id(std::uint64_t trace_id) { t_trace_id = trace_id; }

std::uint64_t current_trace_id() { return t_trace_id; }

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  std::scoped_lock lock(emit_mu_);
  sink_.swap(sink);
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view msg) {
  // Re-check: callers normally come through MWSEC_LOG (already checked),
  // but log() is also a public entry point.
  if (!enabled(level)) return;
  // Per-line prefix: thread tag always, the active trace id only while a
  // traced operation is in scope on this thread (so the trace segment
  // appears exactly when tracing is on and correlates lines with spans).
  char prefix[64];
  const std::uint64_t trace = current_trace_id();
  int n = trace != 0
              ? std::snprintf(prefix, sizeof prefix,
                              "[t%u] [trace %llu] ", this_thread_tag(),
                              static_cast<unsigned long long>(trace))
              : std::snprintf(prefix, sizeof prefix, "[t%u] ",
                              this_thread_tag());
  if (n < 0) n = 0;
  std::string line;
  line.reserve(static_cast<std::size_t>(n) + msg.size());
  line.append(prefix, static_cast<std::size_t>(n));
  line.append(msg);
  std::scoped_lock lock(emit_mu_);
  if (sink_) {
    sink_(level, component, line);
    return;
  }
  std::fprintf(stderr, "[%s] [%.*s] %s\n", level_name(level),
               static_cast<int>(component.size()), component.data(),
               line.c_str());
}

}  // namespace mwsec::util
