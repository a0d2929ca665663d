// In-memory span recorder for the traced run.
//
// The load thread opens a span around each call it makes into a layer: the
// decision cache, the KeyNote engine (through a decorator), admissions,
// removals, snapshot rebuilds, the session bridge, replication and the
// WebCom scheduler. Every op is one root span whose self time is the
// load thread's own work. Spans nest on that thread only — replica and
// client threads are not traced — so children of one span never overlap
// and a span's self time is its duration minus its children's.
//
// A record is 16 bytes, so a run of a few million ops fits in tens of
// megabytes. Records stay in memory until write() at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kOpDecide,
  kOpGrant,
  kOpRevoke,
  kOpStorm,
  kAuthzDecide,       ///< one read through a decision point's cache
  kSettleProbe,       ///< one post-write check at a decision point
  kKeynoteQuery,      ///< a cache miss reaching the KeyNote engine
  kKeynoteAdmit,      ///< CompiledStore::add_credential
  kKeynoteRemove,     ///< CompiledStore::remove_matching
  kKeynoteRemoveLicensee,  ///< CompiledStore::remove_by_licensee
  kKeynoteRebuild,    ///< CompiledStore::acquire after a version move
  kBridgeActivate,    ///< SessionBridge::activate; the admission is a child
  kBridgeDeactivate,  ///< SessionBridge::deactivate; the removal is a child
  kBridgeRevoke,      ///< SessionBridge::revoke_principal
  kSyncPublish,       ///< Authority publish/revoke: admit + broadcast
  kSyncConverge,      ///< publish return -> last replica wait_for_epoch
  kWebcomExecute,     ///< Master::execute of one task graph
  kCount
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

const char* span_name(SpanName name);
/// The layer a span's self time is charged to.
const char* span_layer(SpanName name);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  /// Closes its span when it goes out of scope; inert when tracing is
  /// off. Returned as a prvalue, never copied or moved.
  class Scope {
   public:
    Scope() = default;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::uint32_t index)
        : tracer_(tracer), index_(index) {}
    Tracer* tracer_ = nullptr;
    std::uint32_t index_ = 0;
  };

  [[nodiscard]] Scope span(SpanName name) {
    if (!enabled_) return {};
    return Scope(this, open(name));
  }

  struct Record {
    std::int64_t start_ns = 0;
    std::uint32_t dur_ns = 0;
    /// (index - parent index) << 8 | name; a distance of 0 marks a root.
    std::uint32_t link = 0;

    SpanName name() const { return static_cast<SpanName>(link & 0xff); }
    std::uint32_t parent_distance() const { return link >> 8; }
  };
  const std::vector<Record>& records() const { return records_; }

  /// Write every record to `path`: one header line naming the span ids in
  /// order, then the raw little-endian 16-byte records. False on I/O error.
  bool write(const std::string& path) const;

 private:
  std::uint32_t open(SpanName name);
  void close(std::uint32_t index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::uint32_t> open_;  ///< stack of open record indices
};

/// Per-name aggregates over one trace.
struct SpanStats {
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::vector<float> dur_us;   ///< per span, in record order
  std::vector<float> self_samples_us;
  std::vector<float> leaf_us;  ///< durations of spans with no children
};

struct TraceSummary {
  std::array<SpanStats, kSpanNames> by_name;
  double roots_us = 0;  ///< summed durations of root (op) spans
};

TraceSummary summarize(const Tracer& tracer);

}  // namespace perfbench
