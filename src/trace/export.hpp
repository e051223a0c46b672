// Trace export: deterministic merging of per-shard traces + serialisers.
//
// The Collector mirrors the campaign-stats merge contract
// (docs/DETERMINISM.md): shards are keyed by shard index and serialised in
// ascending shard order, so the merged output depends only on (seed,
// jobs), never on worker scheduling. Two formats:
//
//   * JSONL — one event object per line, fixed key order, integer-only
//     number formatting ⇒ byte-comparable across runs.
//   * Chrome trace_event — a `chrome://tracing` / Perfetto-loadable JSON
//     document ("X" complete events / "i" instants, ts+dur in µs, one tid
//     per shard).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace zh::trace {

// Format itself lives in trace/trace.hpp (it is part of trace::Config);
// the parse/name helpers and serialisers stay here with the writers.

/// Parses "jsonl" / "chrome"; nullopt otherwise.
std::optional<Format> parse_format(std::string_view text) noexcept;
const char* format_name(Format format) noexcept;

/// Accumulates ShardTraces and serialises them in shard order.
class Collector {
 public:
  /// Adds (or replaces) one shard's trace. Workers fill ShardTraces
  /// privately; the merge loop calls this sequentially in shard order.
  void add_shard(unsigned shard, ShardTrace trace);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Buffered events across all shards (post ring-bound).
  std::uint64_t event_count() const noexcept;
  /// Events offered to the rings across all shards.
  std::uint64_t events_emitted() const noexcept;
  /// Events dropped by ring wrap-around across all shards.
  std::uint64_t events_lost() const noexcept;

  /// Summed counter value across shards (0 if never registered).
  std::uint64_t metric(std::string_view name) const;
  /// All counters summed across shards, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> metrics() const;

  std::string to_jsonl() const;
  std::string to_chrome() const;
  std::string serialise(Format format) const {
    return format == Format::kJsonl ? to_jsonl() : to_chrome();
  }

  /// Writes the serialised trace; returns false on I/O failure.
  bool write_file(const std::string& path, Format format) const;

 private:
  std::map<unsigned, ShardTrace> shards_;
};

}  // namespace zh::trace
