// Memoisation of signed NSEC3 chains.
//
// Operator-scale hosting re-materialises evicted zones through the lazy LRU
// (server/auth_server.hpp), and every re-materialisation used to re-hash and
// re-sign the whole NSEC3 chain from scratch. The deterministic testbed
// rebuilds *exactly* the same chain each time — same apex, same key seed,
// same NSEC3 parameters, same candidate names and type bitmaps — so the
// rebuild is pure recomputation. This cache keys a finished chain on every
// input it depends on and replays it on the next rebuild.
//
// The determinism contract (docs/DETERMINISM.md): a memo hit credits the
// *logical* hash cost the rebuild would have ticked (CostMeter sha1/sha2/
// nsec3 counters — the currency of amplification figures and simtime service
// costs) while skipping the physical work, so campaign artefacts are
// byte-identical with the memo on, off (ZH_CHAIN_MEMO=0), or at any
// capacity. Only CostMeter::sha1_physical_blocks() reveals the saving.
//
// The memo is thread-local: campaign workers are one-thread-one-Internet,
// so per-thread caches keep hit/miss sequences (and the server.chain_memo_hit
// metric) deterministic for a given (seed, jobs) pair.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "zone/zone.hpp"

namespace zh::zone {

/// Logical hash work a chain build performed — replayed into CostMeter on a
/// memo hit so accounting is invariant under memoisation.
struct ChainCost {
  std::uint64_t sha1_blocks = 0;
  std::uint64_t sha2_blocks = 0;
  std::uint64_t nsec3_hashes = 0;
};

/// Monotonic per-thread memo telemetry.
struct ChainMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

/// Serialises memo-key fields as length-prefixed byte strings. Keys are the
/// *exact* inputs — no hashing — so distinct chains can never collide; a
/// wrong-chain replay is structurally impossible, not just improbable.
class ChainKeyBuilder {
 public:
  void add_bytes(std::span<const std::uint8_t> bytes) {
    add_length(bytes.size());
    buffer_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  void add_string(std::string_view s) {
    add_length(s.size());
    buffer_.append(s);
  }
  /// Same bytes as add_bytes(name.to_canonical_wire()) — the length prefix
  /// is the name's wire length — written through write_canonical_wire
  /// from a stack buffer instead of a temporary vector.
  void add_name(const dns::Name& name) {
    std::array<std::uint8_t, dns::Name::kMaxWireLength> wire;
    add_bytes(std::span<const std::uint8_t>(
        wire.data(), name.write_canonical_wire(wire)));
  }
  void add_u64(std::uint64_t v) {
    char field[8];
    for (int i = 7; i >= 0; --i) {
      field[i] = static_cast<char>(v & 0xff);
      v >>= 8;
    }
    buffer_.append(field, sizeof field);
  }
  void add_u32(std::uint32_t v) { add_u64(v); }
  void add_u16(std::uint16_t v) { add_u64(v); }
  void add_bool(bool v) { add_u64(v ? 1 : 0); }

  std::string take() && { return std::move(buffer_); }

 private:
  void add_length(std::size_t n) { add_u64(static_cast<std::uint64_t>(n)); }

  std::string buffer_;
};

/// Thread-local LRU cache of signed NSEC3 chains, keyed by the exact chain
/// inputs (see sign_zone). Capacity 0 disables the memo entirely.
class Nsec3ChainMemo {
 public:
  /// A finished chain plus the logical hash cost of building it.
  struct CachedChain {
    std::vector<Nsec3ChainEntry> entries;
    ChainCost cost;
  };

  /// Built-in default capacity when neither ZH_CHAIN_MEMO nor
  /// set_default_capacity() says otherwise.
  static constexpr std::size_t kDefaultCapacity = 4096;
  /// Ceiling for reserve_default_for() auto-sizing — keeps an accidental
  /// multi-million-domain spec from pinning every chain in memory.
  static constexpr std::size_t kMaxAutoCapacity = 65536;

  /// The calling thread's memo. First use sizes it to default_capacity().
  static Nsec3ChainMemo& instance();

  /// Process-wide default capacity for new per-thread memos. First call
  /// reads ZH_CHAIN_MEMO (crypto::chain_memo_env: 0 disables; garbage gets
  /// a stderr diagnostic and falls back to kDefaultCapacity).
  static std::size_t default_capacity();
  /// Pins the default (bench --chain-memo flag); also resizes the calling
  /// thread's memo, and 0 switches crypto::Nsec3DigestMemo off with it.
  /// Later reserve_default_for() calls become no-ops.
  static void set_default_capacity(std::size_t capacity);
  /// Raises the default towards `zones` (capped at kMaxAutoCapacity) so an
  /// ecosystem install can size the memo to its domain population. No-op if
  /// the capacity was pinned via ZH_CHAIN_MEMO or set_default_capacity().
  static void reserve_default_for(std::size_t zones);

  std::size_t capacity() const noexcept { return capacity_; }
  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t size() const noexcept { return map_.size(); }
  const ChainMemoStats& stats() const noexcept { return stats_; }

  /// Resizes this thread's memo, evicting LRU entries down to the new
  /// capacity; 0 drops everything and disables.
  void set_capacity(std::size_t capacity);

  /// Drops all cached chains (stats are monotonic and survive), and the
  /// calling thread's crypto::Nsec3DigestMemo entries with them, so a
  /// caller that wants cold hashing asks one memo.
  void clear();

  /// Cache probe. A hit refreshes LRU order and returns a pointer valid
  /// until the next insert()/set_capacity()/clear() on this thread — callers
  /// copy out immediately. Returns nullptr (ticking the miss counter) on a
  /// miss, and nullptr without stats when disabled.
  const CachedChain* lookup(const std::string& key);

  /// Stores a freshly built chain; evicts the LRU entry beyond capacity.
  /// No-op when disabled.
  void insert(std::string key, std::vector<Nsec3ChainEntry> entries,
              ChainCost cost);

 private:
  struct Slot {
    CachedChain chain;
    std::list<std::string>::iterator lru;
  };

  std::size_t capacity_ = kDefaultCapacity;
  ChainMemoStats stats_;
  std::list<std::string> lru_;  // most-recently-used first
  std::unordered_map<std::string, Slot> map_;
};

}  // namespace zh::zone
