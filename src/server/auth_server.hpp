// Authoritative name server: answers queries over its hosted zones with
// full DNSSEC semantics — positive answers with RRSIGs, wildcard synthesis,
// referrals, and NSEC/NSEC3 denial proofs per RFC 4035 / RFC 5155 §7.2.
//
// Operator-scale hosting (Squarespace serving 6.1 M domains in Table 2) is
// supported through a lazy zone provider: zones are materialised on demand
// and LRU-cached, so the synthetic ecosystem never holds 300 K signed zones
// in memory at once.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "dns/message.hpp"
#include "simnet/address.hpp"
#include "trace/trace.hpp"
#include "zone/zone.hpp"

namespace zh::server {

/// Resolves an apex name to a (signed, ready-to-serve) zone; nullptr if this
/// provider does not host it.
using ZoneProvider =
    std::function<std::shared_ptr<const zone::Zone>(const dns::Name& apex)>;

/// Maps a query name to the apex of the deepest zone this provider hosts
/// containing it; nullopt if none.
using ApexLocator =
    std::function<std::optional<dns::Name>(const dns::Name& qname)>;

class AuthoritativeServer {
 public:
  explicit AuthoritativeServer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Hosts a fully built zone.
  void add_zone(std::shared_ptr<const zone::Zone> zone);

  /// Installs lazy hosting: `locator` decides which apex (if any) serves a
  /// qname, `provider` materialises the zone. Used for operator-scale
  /// hosting. Explicitly added zones take precedence.
  void set_lazy_provider(ApexLocator locator, ZoneProvider provider,
                         std::size_t cache_capacity = 1024);

  /// Lets the LRU size itself from its own pressure counters (the ROADMAP
  /// "measure, then size by spec" item): whenever `resign_threshold`
  /// re-signs accumulate since the last growth, the capacity doubles, up
  /// to `max_capacity` — each growth ticks the server.zone_cache_grow
  /// metric. A population larger than the initial capacity thus converges
  /// in O(log max/initial) doublings to a cache that stops re-signing,
  /// instead of thrashing forever on a hardcoded size. Pass max_capacity
  /// <= the current capacity to turn adaptation off.
  void set_lazy_cache_adaptive(std::size_t max_capacity,
                               std::uint64_t resign_threshold = 1);

  /// Answers one query (the simnet node handler body).
  dns::Message handle(const dns::Message& query,
                      const simnet::IpAddress& source) const;

  /// Number of zones materialised through the lazy provider (cache misses).
  std::uint64_t lazy_materialisations() const noexcept {
    return lazy_materialisations_;
  }
  /// Lazy-zone LRU hits (query served from an already-materialised zone).
  std::uint64_t lazy_hits() const noexcept { return lazy_hits_; }
  /// Zones evicted from the lazy LRU under capacity pressure.
  std::uint64_t lazy_evictions() const noexcept { return lazy_evictions_; }
  /// Re-materialisations of previously evicted zones. Each one re-signs the
  /// whole zone — the cost signal behind the ROADMAP "measure, then size by
  /// spec" LRU item.
  std::uint64_t lazy_resigns() const noexcept { return lazy_resigns_; }
  /// Current lazy-LRU capacity (grows under set_lazy_cache_adaptive).
  std::size_t lazy_cache_capacity() const noexcept { return cache_capacity_; }
  /// Capacity doublings performed by the adaptive policy.
  std::uint64_t lazy_cache_growths() const noexcept { return lazy_growths_; }

  /// Attaches a tracer (normally the owning Network's, wired by
  /// testbed::Internet::build): LRU activity ticks the server.zone_*
  /// metrics, and materialisations become spans carrying their signing
  /// cost when event tracing is enabled.
  void set_tracer(trace::Tracer* tracer);

 private:
  std::shared_ptr<const zone::Zone> zone_for(const dns::Name& qname,
                                             dns::RrType qtype) const;
  std::shared_ptr<const zone::Zone> lazy_zone(const dns::Name& apex) const;

  std::string name_;
  std::unordered_map<dns::Name, std::shared_ptr<const zone::Zone>,
                     dns::NameHash>
      zones_;
  ApexLocator locator_;
  ZoneProvider provider_;

  // LRU cache of lazily materialised zones. The capacity is mutable because
  // the adaptive policy grows it from inside the (const) query path.
  mutable std::size_t cache_capacity_ = 1024;
  std::size_t max_cache_capacity_ = 0;  // 0 = adaptation off
  std::uint64_t resign_threshold_ = 1;
  mutable std::uint64_t lazy_growths_ = 0;
  mutable std::uint64_t resigns_at_last_growth_ = 0;
  mutable std::list<dns::Name> lru_;
  mutable std::unordered_map<
      dns::Name,
      std::pair<std::shared_ptr<const zone::Zone>, std::list<dns::Name>::iterator>,
      dns::NameHash>
      cache_;
  mutable std::uint64_t lazy_materialisations_ = 0;
  mutable std::uint64_t lazy_hits_ = 0;
  mutable std::uint64_t lazy_evictions_ = 0;
  mutable std::uint64_t lazy_resigns_ = 0;
  /// Apexes evicted at least once — a later materialisation of one of these
  /// is a re-sign, not a first touch.
  mutable std::unordered_set<dns::Name, dns::NameHash> evicted_;

  trace::Tracer* tracer_ = nullptr;
  trace::Metrics::Counter hit_metric_ = nullptr;
  trace::Metrics::Counter materialise_metric_ = nullptr;
  trace::Metrics::Counter evict_metric_ = nullptr;
  trace::Metrics::Counter resign_metric_ = nullptr;
  trace::Metrics::Counter grow_metric_ = nullptr;
};

}  // namespace zh::server
