// Minimal leveled, thread-safe logger.
//
// The simulators log mediation decisions and scheduling events; tests set
// the level to kOff to keep output clean, the examples run at kInfo.
//
// MWSEC_LOG(kDebug, "x") << expensive() evaluates nothing — not the
// stream operands, not the LogLine — unless the level is enabled: the
// macro checks `Logger::enabled()` (one relaxed atomic load) first.
// Output goes to a pluggable sink (stderr by default) so tests and
// mwsec-stats can capture lines instead of polluting ctest logs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace mwsec::util {

enum class LogLevel { kOff = 0, kError, kWarn, kInfo, kDebug };

/// Small dense id for the calling thread (1, 2, 3 … in first-log order):
/// readable in log prefixes where std::thread::id is an opaque hash.
std::uint32_t this_thread_tag();

/// The trace id woven into this thread's log-line prefixes. Maintained by
/// obs::ScopedTraceContext (0 = no traced operation active / tracing off);
/// util stores it so the logger can read it without depending on obs.
void set_current_trace_id(std::uint64_t trace_id);
std::uint64_t current_trace_id();

class Logger {
 public:
  /// Process-wide logger instance.
  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Would a line at `level` be emitted? Cheap: one relaxed load. The
  /// MWSEC_LOG macro consults this before building the line.
  bool enabled(LogLevel level) const {
    LogLevel current = this->level();
    return current != LogLevel::kOff && level <= current;
  }

  /// Receives every emitted line. Called with the logger's output lock
  /// held, so lines from concurrent threads never interleave — which also
  /// means a sink must not call back into log()/MWSEC_LOG or set_sink()
  /// (self-deadlock).
  using Sink =
      std::function<void(LogLevel, std::string_view component,
                         std::string_view message)>;
  /// Replace the output sink; an empty function restores stderr. Safe to
  /// call while other threads are logging: the swap takes the output
  /// lock, so it waits for an in-flight emission to finish with the old
  /// sink.
  void set_sink(Sink sink);

  /// Emit one line: "[level] [component] [t<n>] [trace <id>] message".
  /// The thread tag is always present; the trace segment only when the
  /// calling thread has an active traced operation (current_trace_id()
  /// != 0). Sinks receive the message with this prefix already applied.
  void log(LogLevel level, std::string_view component, std::string_view msg);

 private:
  Logger() = default;
  std::mutex emit_mu_;  ///< serialises emission and guards sink_
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  Sink sink_;  // empty -> stderr
};

/// Streaming helper: MWSEC_LOG(kInfo, "webcom") << "scheduled " << n;
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogLine() { Logger::instance().log(level_, component_, os_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream os_;
};

/// Swallows a LogLine in the disabled branch of MWSEC_LOG. operator&
/// binds looser than operator<<, so the whole stream chain is dead code
/// (never evaluated) when the level check fails.
struct LogLineVoidify {
  void operator&(LogLine&) {}
  void operator&(LogLine&&) {}
};

}  // namespace mwsec::util

#define MWSEC_LOG(level, component)                                  \
  !::mwsec::util::Logger::instance().enabled(                        \
      ::mwsec::util::LogLevel::level)                                \
      ? (void)0                                                      \
      : ::mwsec::util::LogLineVoidify() &                            \
            ::mwsec::util::LogLine(::mwsec::util::LogLevel::level, component)
