// Aggressive negative caching (the resolver side of RFC 8198) and
// resolution-failure caching (RFC 9520).
//
// `AggressiveNegCache` keeps *validated* NSEC3 intervals — owner-hash →
// next-hash spans keyed by zone and pinned to that zone's NSEC3 parameters —
// and answers the RFC 8198 question: can NXDOMAIN/NODATA for (qname, qtype)
// be synthesized purely from cached denial evidence, without asking the
// authoritative again? The NSEC3 caveats of RFC 8198 §5.2 are honoured:
// spans whose Opt-Out flag is set never prove NXDOMAIN (an insecure
// delegation may exist inside them — the lookup reports the refusal so
// callers can count the breakage), and delegation-point owners (NS without
// SOA in the type bitmap) are never used to deny names below the cut.
//
// `FailureCache` is the RFC 9520 sibling: transient resolution failures
// (upstream timeouts, deadline expiries) are remembered per (qname, qtype)
// for a bounded TTL with exponential backoff, so repeated queries for a
// broken name are answered from the cache instead of re-running the whole
// failing resolution.
//
// Both are deterministic, capacity-bounded, pure data structures: no clocks
// of their own (callers pass virtual `now`), no randomness, no allocation
// ordering that escapes into results — the same insert/lookup sequence
// always produces the same hits, evictions and stats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/dnssec.hpp"
#include "dns/message.hpp"
#include "simtime/simtime.hpp"

namespace zh::resolver {

/// The NSEC3 parameter binding of one cached zone (RFC 5155 §7.2: one
/// parameter set per zone snapshot). Pinned by the first validated insert;
/// later evidence with different parameters is rejected as malformed.
struct Nsec3CacheParams {
  std::uint8_t hash_algorithm = 1;  // SHA-1, the only assigned value
  std::uint16_t iterations = 0;
  std::vector<std::uint8_t> salt;

  bool operator==(const Nsec3CacheParams&) const = default;
};

/// One validated NSEC3 span: the owner/next hash pair plus everything a
/// synthesized response needs to carry the original proof records.
struct NegCacheInterval {
  std::vector<std::uint8_t> owner_hash;  // 20 bytes (SHA-1)
  std::vector<std::uint8_t> next_hash;   // 20 bytes
  bool opt_out = false;
  dns::TypeBitmap types;  // the owner's type bitmap (NODATA checks)
  /// The NSEC3 resource record itself and its covering RRSIGs, replayed
  /// into the authority section of synthesized answers.
  dns::ResourceRecord record;
  std::vector<dns::ResourceRecord> rrsigs;
};

struct NegCacheStats {
  std::uint64_t inserted = 0;           // intervals accepted
  std::uint64_t rejected_batches = 0;   // malformed-evidence batches refused
  std::uint64_t evicted = 0;            // intervals dropped by capacity
  std::uint64_t hits = 0;               // lookups that synthesized an answer
  std::uint64_t misses = 0;
  std::uint64_t optout_refusals = 0;    // only cover had Opt-Out set
};

/// Deterministic, capacity-bounded cache of validated NSEC3 intervals.
///
/// Capacity counts intervals across all zones. When an insert pushes the
/// total over capacity, whole zones are evicted in creation (FIFO) order
/// until it fits again — span-level LRU would make hit patterns depend on
/// lookup interleaving, which would break the jobs-invariance of synthesis
/// counters.
class AggressiveNegCache {
 public:
  explicit AggressiveNegCache(std::size_t capacity = 4096);

  /// Inserts one validated response's intervals for `zone`. All-or-nothing:
  /// when any interval is malformed — wrong hash length, parameters that
  /// contradict the zone's pinned binding, an Opt-Out flag disagreeing
  /// within the batch or with the zone, duplicate or mutually contradictory
  /// spans — the whole batch is refused and nothing is cached. Returns
  /// whether the batch was accepted.
  bool insert(const dns::Name& zone, const Nsec3CacheParams& params,
              const std::vector<NegCacheInterval>& intervals);

  /// Outcome of an RFC 8198 synthesis lookup.
  struct Synthesis {
    bool found = false;
    dns::Rcode rcode = dns::Rcode::kNxDomain;
    /// A full proof existed but its only cover carries Opt-Out — RFC 8198
    /// §5.2 forbids using it, so the query must go upstream. Counted so
    /// benches can report the opt-out breakage rate.
    bool opt_out_refusal = false;
    /// The NSEC3 records (+ RRSIGs) the synthesized proof replays.
    std::vector<dns::ResourceRecord> authorities;
  };

  /// Tries to synthesize a negative answer for (qname, qtype) from the
  /// deepest cached zone containing qname. Hashing rides the same
  /// SHA-1-metered `dns::nsec3_hash_name` path validation uses, so the CPU
  /// cost of synthesis is accounted exactly like a closest-encloser search.
  Synthesis lookup(const dns::Name& qname, dns::RrType qtype);

  std::size_t interval_count() const noexcept { return size_; }
  std::size_t zone_count() const noexcept { return zones_.size(); }
  const NegCacheStats& stats() const noexcept { return stats_; }
  void clear();

 private:
  /// Byte-string order on hashes. Transparent, so a digest looks up
  /// without being copied into a vector.
  struct HashLess {
    using is_transparent = void;
    bool operator()(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const noexcept {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  };

  struct ZoneEntry {
    Nsec3CacheParams params;
    bool opt_out = false;  // pinned with the first batch
    /// Sorted by owner hash — covering-span lookups are a map search.
    std::map<std::vector<std::uint8_t>, NegCacheInterval, HashLess> intervals;
  };

  /// The cached interval covering hash `h` (owner < h < next, chain-wrap
  /// aware), or nullptr. Exact owner matches are not "covering".
  const NegCacheInterval* covering(const ZoneEntry& zone,
                                   std::span<const std::uint8_t> h) const;

  void evict_oldest_zone();

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::unordered_map<dns::Name, ZoneEntry, dns::NameHash> zones_;
  std::list<dns::Name> creation_order_;  // front = oldest zone
  NegCacheStats stats_;
};

struct FailureCacheStats {
  std::uint64_t recorded = 0;
  std::uint64_t hits = 0;
  std::uint64_t clears = 0;  // wholesale capacity clears
};

/// RFC 9520 resolution-failure cache: transient failures are served from
/// cache for a bounded TTL, doubling per consecutive failure up to the
/// 5-minute ceiling (§3.2). Virtual time comes from the caller, so with no
/// active time model entries simply never expire — deterministically.
class FailureCache {
 public:
  struct Config {
    /// TTL of a first failure. RFC 9520 §3.2: at least 1 second, at most
    /// 5 minutes — the constructor clamps into that window.
    simtime::Duration base_ttl = simtime::Duration::from_seconds(5);
    simtime::Duration max_ttl = simtime::Duration::from_seconds(300);
    std::size_t capacity = 1024;
  };

  explicit FailureCache(Config config);

  /// Records a resolution failure for `key` observed at `now`. Repeated
  /// failures back off: each consecutive record doubles the TTL up to
  /// `max_ttl`. Returns the TTL applied.
  simtime::Duration record(const std::string& key, simtime::Duration now,
                           std::optional<dns::EdeCode> ede = std::nullopt,
                           std::string ede_text = {});

  /// The cached failure for `key` if it is still fresh at `now`.
  struct Hit {
    std::optional<dns::EdeCode> ede;
    std::string ede_text;
  };
  std::optional<Hit> lookup(const std::string& key, simtime::Duration now);

  std::size_t entry_count() const noexcept { return entries_.size(); }
  const FailureCacheStats& stats() const noexcept { return stats_; }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    simtime::Duration expires;
    simtime::Duration ttl;
    std::uint32_t consecutive = 0;
    std::optional<dns::EdeCode> ede;
    std::string ede_text;
  };

  Config config_;
  std::unordered_map<std::string, Entry> entries_;
  FailureCacheStats stats_;
};

}  // namespace zh::resolver
