#include "resolver/negcache.hpp"

#include <algorithm>
#include <span>

namespace zh::resolver {
namespace {

constexpr std::size_t kSha1HashLen = 20;

bool covers(const NegCacheInterval& interval,
            std::span<const std::uint8_t> h) {
  return dns::nsec3_covers(interval.owner_hash, interval.next_hash, h);
}

/// A delegation-point owner (NS without SOA) must not deny names below the
/// zone cut — the child zone is authoritative there (RFC 8198 §5.2 via
/// RFC 5155 §8.9). DS is the exception: it lives on the parent side.
bool is_delegation_bitmap(const dns::TypeBitmap& types) {
  return types.contains(dns::RrType::kNs) &&
         !types.contains(dns::RrType::kSoa);
}

}  // namespace

AggressiveNegCache::AggressiveNegCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void AggressiveNegCache::clear() {
  zones_.clear();
  creation_order_.clear();
  size_ = 0;
}

void AggressiveNegCache::evict_oldest_zone() {
  if (creation_order_.empty()) return;
  const dns::Name victim = creation_order_.front();
  creation_order_.pop_front();
  const auto it = zones_.find(victim);
  if (it == zones_.end()) return;
  stats_.evicted += it->second.intervals.size();
  size_ -= it->second.intervals.size();
  zones_.erase(it);
}

bool AggressiveNegCache::insert(const dns::Name& zone,
                                const Nsec3CacheParams& params,
                                const std::vector<NegCacheInterval>& intervals) {
  const auto reject = [this] {
    ++stats_.rejected_batches;
    return false;
  };
  if (intervals.empty() || intervals.size() > capacity_) return reject();
  if (params.hash_algorithm != 1) return reject();  // SHA-1 only (RFC 5155)

  // Per-interval shape, and batch-internal consistency: one Opt-Out flag,
  // no duplicate owners, at most one wrap-around span (a real chain
  // snapshot cannot contain two), single-record chains stand alone.
  const bool batch_opt_out = intervals.front().opt_out;
  std::size_t wrap_spans = 0;
  for (const auto& interval : intervals) {
    if (interval.owner_hash.size() != kSha1HashLen ||
        interval.next_hash.size() != kSha1HashLen)
      return reject();
    if (interval.opt_out != batch_opt_out) return reject();
    if (!HashLess{}(interval.owner_hash, interval.next_hash)) ++wrap_spans;
  }
  if (wrap_spans > 1) return reject();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t j = 0; j < intervals.size(); ++j) {
      if (i == j) continue;
      if (intervals[i].owner_hash == intervals[j].owner_hash) return reject();
      // One span claiming another's owner does not exist is a contradiction
      // (this also refuses a single-record chain next to anything else).
      if (covers(intervals[i], intervals[j].owner_hash)) return reject();
    }
  }

  // Zone binding: parameters and Opt-Out are pinned by the first batch;
  // evidence under a different binding is malformed for this zone.
  auto zone_it = zones_.find(zone);
  if (zone_it != zones_.end()) {
    const ZoneEntry& entry = zone_it->second;
    if (!(entry.params == params) || entry.opt_out != batch_opt_out)
      return reject();
    for (const auto& interval : intervals) {
      const auto existing = entry.intervals.find(interval.owner_hash);
      if (existing != entry.intervals.end()) {
        if (existing->second.next_hash != interval.next_hash) return reject();
        continue;  // identical span — refresh is fine
      }
      // Contradiction either way round: a cached span covering the new
      // owner, or the new span covering a cached owner.
      if (covering(entry, interval.owner_hash)) return reject();
      for (const auto& [owner, cached] : entry.intervals)
        if (covers(interval, owner)) return reject();
    }
  }

  if (zone_it == zones_.end()) {
    ZoneEntry entry;
    entry.params = params;
    entry.opt_out = batch_opt_out;
    zone_it = zones_.emplace(zone, std::move(entry)).first;
    creation_order_.push_back(zone);
  }
  for (const auto& interval : intervals) {
    const auto [it, fresh] =
        zone_it->second.intervals.emplace(interval.owner_hash, interval);
    if (fresh) {
      ++size_;
      ++stats_.inserted;
    }
  }
  while (size_ > capacity_) evict_oldest_zone();
  return true;
}

const NegCacheInterval* AggressiveNegCache::covering(
    const ZoneEntry& zone, std::span<const std::uint8_t> h) const {
  if (zone.intervals.empty()) return nullptr;
  // Candidate 1: the greatest owner ≤ h. Candidate 2: the greatest owner
  // overall — a wrap-around span's owner is its chain's maximum, so if we
  // hold the wrap span at all, it is the map's last entry.
  auto it = zone.intervals.upper_bound(h);
  if (it != zone.intervals.begin()) {
    const auto& candidate = std::prev(it)->second;
    if (!std::ranges::equal(candidate.owner_hash, h) && covers(candidate, h))
      return &candidate;
  }
  const auto& last = std::prev(zone.intervals.end())->second;
  if (!std::ranges::equal(last.owner_hash, h) && covers(last, h)) return &last;
  return nullptr;
}

AggressiveNegCache::Synthesis AggressiveNegCache::lookup(const dns::Name& qname,
                                                         dns::RrType qtype) {
  Synthesis result;
  const auto miss = [&]() -> Synthesis& {
    ++stats_.misses;
    return result;
  };

  // Deepest cached zone containing qname (mirrors the zone-context walk).
  const ZoneEntry* zone = nullptr;
  dns::Name apex = dns::Name::root();
  for (std::size_t labels = qname.label_count() + 1; labels-- > 0;) {
    const dns::Name candidate = qname.ancestor_with_labels(labels);
    const auto it = zones_.find(candidate);
    if (it != zones_.end()) {
      zone = &it->second;
      apex = candidate;
      break;
    }
  }
  if (!zone) return miss();

  const auto hash_of = [&](const dns::Name& name) {
    return dns::nsec3_hash_name(
        name,
        std::span<const std::uint8_t>(zone->params.salt.data(),
                                      zone->params.salt.size()),
        zone->params.iterations);
  };
  const auto add_proof = [&](const NegCacheInterval& interval) {
    for (const auto& present : result.authorities)
      if (present.name.equals(interval.record.name) &&
          present.type == dns::RrType::kNsec3)
        return;
    result.authorities.push_back(interval.record);
    result.authorities.insert(result.authorities.end(),
                              interval.rrsigs.begin(), interval.rrsigs.end());
  };

  // Exact owner match → NODATA synthesis, unless the bitmap says the name
  // has the type (or a CNAME), or the owner is a delegation point.
  const auto qhash = hash_of(qname);
  const auto match = zone->intervals.find(qhash);
  if (match != zone->intervals.end()) {
    const NegCacheInterval& interval = match->second;
    if (interval.types.contains(qtype) ||
        interval.types.contains(dns::RrType::kCname))
      return miss();
    if (qtype != dns::RrType::kDs && is_delegation_bitmap(interval.types))
      return miss();
    result.found = true;
    result.rcode = dns::Rcode::kNoError;
    add_proof(interval);
    ++stats_.hits;
    return result;
  }

  // Closest-encloser walk against cached owners (RFC 5155 §8.3, served
  // from cache): the CE must match, the next closer must be covered, and
  // the CE's wildcard child must be covered too.
  const NegCacheInterval* ce = nullptr;
  dns::Name next_closer = qname;
  dns::Name closest_encloser = apex;
  for (std::size_t labels = qname.label_count();
       labels-- > apex.label_count();) {
    const dns::Name candidate = qname.ancestor_with_labels(labels);
    const auto it = zone->intervals.find(hash_of(candidate));
    if (it != zone->intervals.end()) {
      ce = &it->second;
      closest_encloser = candidate;
      next_closer = qname.ancestor_with_labels(labels + 1);
      break;
    }
  }
  if (!ce) {
    // The apex itself is the last candidate encloser.
    const auto it = zone->intervals.find(hash_of(apex));
    if (it == zone->intervals.end()) return miss();
    ce = &it->second;
    closest_encloser = apex;
    next_closer = qname.ancestor_with_labels(apex.label_count() + 1);
  }
  if (is_delegation_bitmap(ce->types)) return miss();  // below a zone cut

  const NegCacheInterval* nc_cover = covering(*zone, hash_of(next_closer));
  if (!nc_cover) return miss();

  const dns::Name wildcard = closest_encloser.wildcard_child();
  const auto whash = hash_of(wildcard);
  if (zone->intervals.find(whash) != zone->intervals.end())
    return miss();  // the wildcard exists — positive synthesis is upstream's job
  const NegCacheInterval* wc_cover = covering(*zone, whash);
  if (!wc_cover) return miss();

  // RFC 8198 §5.2: an Opt-Out span proves nothing about names inside it.
  if (nc_cover->opt_out || wc_cover->opt_out) {
    result.opt_out_refusal = true;
    ++stats_.optout_refusals;
    ++stats_.misses;
    return result;
  }

  result.found = true;
  result.rcode = dns::Rcode::kNxDomain;
  add_proof(*ce);
  add_proof(*nc_cover);
  add_proof(*wc_cover);
  ++stats_.hits;
  return result;
}

FailureCache::FailureCache(Config config) : config_(config) {
  // RFC 9520 §3.2: cache for at least 1 second, at most 5 minutes.
  const simtime::Duration floor = simtime::Duration::from_seconds(1);
  const simtime::Duration ceiling = simtime::Duration::from_seconds(300);
  if (config_.max_ttl > ceiling) config_.max_ttl = ceiling;
  if (config_.max_ttl < floor) config_.max_ttl = floor;
  if (config_.base_ttl < floor) config_.base_ttl = floor;
  if (config_.base_ttl > config_.max_ttl) config_.base_ttl = config_.max_ttl;
  if (config_.capacity == 0) config_.capacity = 1;
}

simtime::Duration FailureCache::record(const std::string& key,
                                       simtime::Duration now,
                                       std::optional<dns::EdeCode> ede,
                                       std::string ede_text) {
  ++stats_.recorded;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= config_.capacity) {
      // Wholesale clear, like the resolver's answer cache: deterministic
      // and allocation-order-free, at the cost of losing backoff history.
      entries_.clear();
      ++stats_.clears;
    }
    it = entries_.emplace(key, Entry{}).first;
  }
  Entry& entry = it->second;
  ++entry.consecutive;
  simtime::Duration ttl = config_.base_ttl;
  for (std::uint32_t i = 1; i < entry.consecutive && ttl < config_.max_ttl;
       ++i)
    ttl = ttl + ttl;
  if (ttl > config_.max_ttl) ttl = config_.max_ttl;
  entry.ttl = ttl;
  entry.expires = now + ttl;
  entry.ede = ede;
  entry.ede_text = std::move(ede_text);
  return ttl;
}

std::optional<FailureCache::Hit> FailureCache::lookup(const std::string& key,
                                                      simtime::Duration now) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  // Expired entries stay resident for backoff history; they just stop
  // answering. now == expires is already stale (a TTL of 1s serves for 1s).
  if (!(now < it->second.expires)) return std::nullopt;
  ++stats_.hits;
  return Hit{it->second.ede, it->second.ede_text};
}

}  // namespace zh::resolver
