// zh::trace — deterministic per-query tracing & metrics.
//
// The paper's claims hinge on *where* a query spends its virtual time
// (recursion depth, NSEC3 proof validation, retransmits, queue waits), yet
// until this subsystem the repo only exposed end-to-end numbers through
// scattered counters. zh::trace is the observability backbone: span-based
// structured events stamped with **virtual-time** timestamps, a named
// counter registry, and per-stage latency accumulators — all deterministic
// (same seed ⇒ byte-identical trace output; no wall clock anywhere).
//
// Layering: this is a leaf library (it depends only on zh_crypto, for the
// CostMeter deltas spans capture). simtime::ServiceQueue, simnet::Network,
// the resolver and the authoritative server all sit *above* it; the
// virtual clock reaches the tracer through the tiny TimeSource interface
// (implemented by simnet::Network over its simtime::Clock).
//
// Concurrency: a Tracer is as single-threaded as the Network that owns it
// (one-network-per-worker contract, simnet/network.hpp). Sharded campaigns
// therefore trace lock-free into per-shard buffers and merge them in
// deterministic shard order afterwards (trace/export.hpp) — the same shape
// that keeps campaign statistics bit-identical for any --jobs value.
//
// Cost contract: tracing is compiled in but OFF by default. With the
// tracer disabled every event emission collapses to one branch, and
// nothing here ever touches the clock, the loss RNG or any query count —
// zero-config runs stay byte-identical to the goldens. Metrics counters
// and stage accumulators are always on (plain integer adds) because they
// produce no output unless something prints them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zh::trace {

/// Source of virtual-time timestamps. Implemented by simnet::Network over
/// its simtime::Clock; abstract so zh_trace stays below simtime.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  virtual std::int64_t now_ns() const = 0;
};

/// The per-query latency stages surfaced in campaign/sweep statistics.
/// Stages overlap deliberately (kResolve spans the whole query while
/// kRecurse/kValidate/kQueueWait time its components), so the four series
/// are a breakdown, not a partition.
enum class Stage : unsigned {
  kResolve = 0,   // whole resolver handle(), end to end
  kRecurse,       // upstream query_servers time (waits + nested deliveries)
  kValidate,      // DNSSEC validation (clock delta + projected hash cost)
  kQueueWait,     // backlog waiting time at bounded service queues
};
inline constexpr std::size_t kStageCount = 4;
const char* stage_name(Stage stage) noexcept;

/// Per-stage monotone virtual-time totals, in nanoseconds. Campaigns
/// snapshot these around each item and aggregate the deltas.
using StageTotals = std::array<std::int64_t, kStageCount>;

inline StageTotals stage_delta(const StageTotals& after,
                               const StageTotals& before) noexcept {
  StageTotals delta{};
  for (std::size_t i = 0; i < kStageCount; ++i)
    delta[i] = after[i] - before[i];
  return delta;
}

/// One structured trace event. `category`/`name` are static string
/// literals (no allocation on the hot path); `detail` carries the dynamic
/// payload (qname, apex, destination) and is only built when tracing is
/// enabled.
struct Event {
  enum class Phase : std::uint8_t {
    kSpan,     // has a duration (Chrome "X" complete event)
    kInstant,  // a point in virtual time (Chrome "i")
  };

  Phase phase = Phase::kInstant;
  const char* category = "";
  const char* name = "";
  std::string detail;
  std::int64_t ts_ns = 0;   // virtual time — deterministic by construction
  std::int64_t dur_ns = 0;  // 0 for instants
  std::uint64_t flow = 0;   // the owning Network's flow key at emission
  /// SHA-1 compression blocks spent inside the span (CostMeter delta) —
  /// the CVE-2023-50868 cost signal attached to the time axis.
  std::uint64_t sha1_blocks = 0;
  /// Span nesting depth at open (0 = top level).
  std::uint32_t depth = 0;
};

/// Named monotone counters (cache hits, LRU evictions, re-signs,
/// retransmits, queue sheds, ...) registered through one registry instead
/// of scattered struct fields. counter() returns a stable slot pointer —
/// hot call sites register once and increment through the pointer, which
/// is why the registry can stay always-on without measurable cost.
class Metrics {
 public:
  using Counter = std::uint64_t*;

  /// Registers (or finds) a counter; the returned pointer stays valid for
  /// the registry's lifetime (node-based map).
  Counter counter(const std::string& name) { return &counters_[name]; }

  /// Adds to a counter by name — for cold call sites without a handle.
  void add(const std::string& name, std::uint64_t n = 1) {
    counters_[name] += n;
  }

  /// Current value; 0 for never-registered names.
  std::uint64_t value(std::string_view name) const;

  /// Sorted (name, value) pairs — the deterministic export order.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Trace serialisation formats (trace/export.hpp implements both).
enum class Format {
  kJsonl,
  kChrome,
};

/// Tracer configuration. Default: disabled, 64 Ki-event ring, JSONL.
struct Config {
  bool enabled = false;
  /// Bounded ring capacity per shard: once full, new events overwrite the
  /// oldest (the trace keeps the most recent window; `lost` counts the
  /// overwritten ones).
  std::size_t buffer_capacity = 1 << 16;
  /// Export format used when the configured trace is written out. Carried
  /// here so one options struct holds *everything* a flag parser hands
  /// over (bench --trace-format lands in the same Config as --trace).
  Format format = Format::kJsonl;
};

/// One shard's trace, detached from its Tracer for cross-thread merging.
struct ShardTrace {
  std::vector<Event> events;  // oldest → newest
  std::uint64_t emitted = 0;  // events offered to the ring
  std::uint64_t lost = 0;     // overwritten by ring wrap-around
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted
  StageTotals stage_ns{};
};

class Tracer;

/// RAII span handle: opens at construction (virtual-time stamp + CostMeter
/// snapshot), emits one Event::kSpan on destruction. Default-constructed
/// spans are inert — the disabled-tracer path hands those out, so a span
/// on a hot path costs one branch when tracing is off.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { close(); }

  bool active() const noexcept { return tracer_ != nullptr; }
  /// Emits the event now (idempotent; the destructor calls it too).
  void close() noexcept;

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  const char* category_ = "";
  const char* name_ = "";
  std::string detail_;
  std::int64_t start_ns_ = 0;
  std::uint64_t sha1_start_ = 0;
  std::uint32_t depth_ = 0;
};

/// Scoped per-stage accumulation: adds the enclosed virtual-time delta to
/// the tracer's stage total. Always on (stage totals feed campaign stats
/// whether or not event tracing is enabled; they are all zero when no time
/// model moves the clock).
class StageTimer {
 public:
  StageTimer(Tracer& tracer, Stage stage);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer();

 private:
  Tracer* tracer_;
  Stage stage_;
  std::int64_t start_ns_;
};

/// The per-Network event sink: a bounded ring of Events, the Metrics
/// registry, and the stage accumulators. Strictly single-threaded (owned
/// by a Network, which is bound to one worker thread).
class Tracer {
 public:
  explicit Tracer(const TimeSource* time) : time_(time) {}

  /// Applies a configuration; clears the event buffer (not the metrics).
  void configure(const Config& config);
  bool enabled() const noexcept { return enabled_; }

  std::int64_t now_ns() const { return time_ ? time_->now_ns() : 0; }

  /// Opens a span (inert when disabled — but note the `detail` argument is
  /// built by the caller, so call sites with a dynamic detail should guard
  /// on enabled() before constructing it).
  Span span(const char* category, const char* name, std::string detail = {});

  /// Emits a point event at the current virtual time. No-op when disabled.
  void instant(const char* category, const char* name,
               std::string detail = {});

  /// Emits a pre-stamped event (layers that know better timestamps than
  /// "now", e.g. a queue admission's arrival time). No-op when disabled.
  void emit(Event event);

  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }
  /// Cold-path convenience for call sites without a cached handle.
  void count(const char* name, std::uint64_t n = 1) { metrics_.add(name, n); }

  void add_stage(Stage stage, std::int64_t ns) noexcept {
    stage_ns_[static_cast<std::size_t>(stage)] += ns;
  }
  std::int64_t stage_ns(Stage stage) const noexcept {
    return stage_ns_[static_cast<std::size_t>(stage)];
  }
  StageTotals stages() const noexcept { return stage_ns_; }

  /// Flow key stamped onto subsequent events (set by Network::set_flow).
  void set_flow(std::uint64_t key) noexcept { flow_ = key; }

  std::uint64_t events_emitted() const noexcept { return emitted_; }
  std::uint64_t events_lost() const noexcept {
    return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
  }

  /// Copies out this shard's trace (events unrolled oldest → newest).
  ShardTrace take() const;

 private:
  friend class Span;
  void close_span(Span& span);
  void push(Event&& event);

  const TimeSource* time_ = nullptr;
  bool enabled_ = false;
  std::size_t capacity_ = 1 << 16;
  std::vector<Event> ring_;
  std::size_t next_ = 0;      // ring write position once full
  std::uint64_t emitted_ = 0;
  std::uint32_t open_depth_ = 0;
  std::uint64_t flow_ = 0;
  Metrics metrics_;
  StageTotals stage_ns_{};
};

}  // namespace zh::trace
