#include "zone/zone.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "dns/dnssec.hpp"

namespace zh::zone {
namespace {

constexpr std::size_t kMinIndexSize = 8;

/// First slot probed for `hash` in an index of `size` slots (a power of
/// two): Fibonacci hashing, whose top bits mix every bit of the hash.
std::size_t home_slot(std::size_t hash, std::size_t size) noexcept {
  const unsigned bits = static_cast<unsigned>(std::countr_zero(size));
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >>
      (64 - bits));
}

}  // namespace

bool Zone::add(dns::ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(apex_)) return false;

  std::size_t position = position_of(rr.name);
  if (position == entries_.size()) {
    // A new owner. Every node's ancestors below the apex already exist, so
    // the empty non-terminals to create stop at the first ancestor found.
    for (std::size_t labels = rr.name.label_count();
         labels-- > apex_.label_count() + 1;) {
      dns::Name ancestor = rr.name.ancestor_with_labels(labels);
      if (position_of(ancestor) != entries_.size()) break;
      insert_node(std::move(ancestor));
    }
    position = insert_node(rr.name);
    frozen_ = false;
  }

  std::vector<dns::RrSet>& rrsets = entries_[position].node.rrsets;
  auto it = std::lower_bound(
      rrsets.begin(), rrsets.end(), rr.type,
      [](const dns::RrSet& set, dns::RrType type) { return set.type < type; });
  if (it == rrsets.end() || it->type != rr.type)
    it = rrsets.insert(it, dns::RrSet{rr.name, rr.type, rr.klass, rr.ttl, {}});
  it->ttl = std::min(it->ttl, rr.ttl);
  // Ignore exact duplicates (RFC 2181 §5).
  if (std::find(it->rdatas.begin(), it->rdatas.end(), rr.rdata) ==
      it->rdatas.end())
    it->rdatas.push_back(std::move(rr.rdata));
  return true;
}

void Zone::freeze() {
  if (frozen_) return;
  // Owner names are unique ignoring case, so the order is total and the
  // insertion order leaves no trace in it.
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return dns::Name::canonical_compare(a.name, b.name) < 0;
            });
  entries_.shrink_to_fit();
  rebuild_index();
  frozen_ = true;
}

void Zone::require_frozen(const char* operation) const {
  if (frozen_) return;
  throw std::logic_error(std::string("zone::Zone::") + operation +
                         ": ordered read of the unfrozen zone " +
                         apex_.to_string() + " (call freeze() first)");
}

std::size_t Zone::position_of(const dns::Name& name) const noexcept {
  if (index_.empty()) return entries_.size();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = home_slot(name.hash(), index_.size());;
       slot = (slot + 1) & mask) {
    const std::uint32_t held = index_[slot];
    if (held == 0) return entries_.size();
    if (entries_[held - 1].name.equals(name)) return held - 1;
  }
}

std::size_t Zone::insert_node(dns::Name name) {
  entries_.push_back(Entry{std::move(name), {}});
  if (entries_.size() * 2 > index_.size())
    rebuild_index();
  else
    index_position(entries_.size() - 1);
  return entries_.size() - 1;
}

void Zone::index_position(std::size_t position) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home_slot(entries_[position].name.hash(), index_.size());
  while (index_[slot] != 0) slot = (slot + 1) & mask;
  index_[slot] = static_cast<std::uint32_t>(position + 1);
}

void Zone::rebuild_index() {
  index_.assign(std::max(kMinIndexSize, std::bit_ceil(entries_.size() * 2)),
                0);
  for (std::size_t i = 0; i < entries_.size(); ++i) index_position(i);
}

const ZoneNode* Zone::node(const dns::Name& name) const {
  const std::size_t position = position_of(name);
  return position == entries_.size() ? nullptr : &entries_[position].node;
}

ZoneNode* Zone::mutable_node(const dns::Name& name) {
  const std::size_t position = position_of(name);
  return position == entries_.size() ? nullptr : &entries_[position].node;
}

const dns::RrSet* Zone::find(const dns::Name& name, dns::RrType type) const {
  const ZoneNode* n = node(name);
  return n ? n->find(type) : nullptr;
}

dns::Name Zone::closest_encloser(const dns::Name& name) const {
  // Each probed ancestor is a flat name: inline ones cost no allocation.
  if (!name.is_subdomain_of(apex_)) return apex_;
  for (std::size_t labels = name.label_count(); labels > apex_.label_count();
       --labels) {
    dns::Name ancestor = name.ancestor_with_labels(labels);
    if (node(ancestor) != nullptr) return ancestor;
  }
  return apex_;
}

std::optional<dns::Name> Zone::delegation_for(const dns::Name& name) const {
  // Walk from just below the apex towards `name`, stopping at the first NS.
  for (std::size_t labels = apex_.label_count() + 1;
       labels <= name.label_count(); ++labels) {
    dns::Name ancestor = name.ancestor_with_labels(labels);
    const ZoneNode* n = node(ancestor);
    if (n && n->has(dns::RrType::kNs)) return ancestor;
  }
  return std::nullopt;
}

std::size_t Zone::record_count() const {
  std::size_t count = 0;
  for (const Entry& entry : entries_)
    for (const dns::RrSet& set : entry.node.rrsets) count += set.size();
  return count;
}

std::optional<dns::Nsec3ParamRdata> Zone::nsec3param() const {
  const dns::RrSet* set = find(apex_, dns::RrType::kNsec3Param);
  if (!set || set->empty()) return std::nullopt;
  return dns::Nsec3ParamRdata::decode(std::span<const std::uint8_t>(
      set->rdatas.front().data(), set->rdatas.front().size()));
}

std::string Zone::to_text() const {
  require_frozen("to_text");
  std::string out;
  for (const Entry& entry : entries_) {
    for (const dns::RrSet& set : entry.node.rrsets) {
      for (const auto& rr : set.to_records()) {
        out += rr.to_string();
        out += '\n';
      }
    }
  }
  // The NSEC3 chain lives outside the nodes; dump it too.
  for (const auto& entry : nsec3_chain_) {
    out += entry.to_record().to_string();
    out += '\n';
    for (const auto& sig : entry.rrsigs) {
      out += sig.to_string();
      out += '\n';
    }
  }
  return out;
}

const ZoneNode* Zone::nsec_covering(const dns::Name& name) const {
  require_frozen("nsec_covering");
  // Start just past the last node at or before `name` (past the end when
  // `name` sorts before every node), then walk back, wrapping.
  const auto after = std::upper_bound(
      entries_.begin(), entries_.end(), name,
      [](const dns::Name& n, const Entry& entry) {
        return dns::Name::canonical_compare(n, entry.name) < 0;
      });
  std::size_t position =
      after == entries_.begin()
          ? entries_.size()
          : static_cast<std::size_t>(after - entries_.begin());
  for (std::size_t step = 0; step < entries_.size(); ++step) {
    position = (position == 0 ? entries_.size() : position) - 1;
    if (entries_[position].node.has(dns::RrType::kNsec))
      return &entries_[position].node;
  }
  return nullptr;
}

void Zone::set_nsec3_chain(std::vector<Nsec3ChainEntry> entries,
                           Nsec3Params params) {
  nsec3_chain_ = std::move(entries);
  nsec3_params_ = std::move(params);
}

const Nsec3ChainEntry* Zone::nsec3_matching(
    std::span<const std::uint8_t> hash) const {
  const auto it = std::lower_bound(
      nsec3_chain_.begin(), nsec3_chain_.end(), hash,
      [](const Nsec3ChainEntry& e, std::span<const std::uint8_t> h) {
        return std::lexicographical_compare(e.hash.begin(), e.hash.end(),
                                            h.begin(), h.end());
      });
  if (it == nsec3_chain_.end()) return nullptr;
  if (it->hash.size() == hash.size() &&
      std::equal(it->hash.begin(), it->hash.end(), hash.begin()))
    return &*it;
  return nullptr;
}

const Nsec3ChainEntry* Zone::nsec3_covering(
    std::span<const std::uint8_t> hash) const {
  if (nsec3_chain_.empty()) return nullptr;
  // Find the last entry with entry.hash < hash; if none, the chain's final
  // entry covers via wrap-around.
  const auto it = std::lower_bound(
      nsec3_chain_.begin(), nsec3_chain_.end(), hash,
      [](const Nsec3ChainEntry& e, std::span<const std::uint8_t> h) {
        return std::lexicographical_compare(e.hash.begin(), e.hash.end(),
                                            h.begin(), h.end());
      });
  const Nsec3ChainEntry* candidate =
      (it == nsec3_chain_.begin()) ? &nsec3_chain_.back() : &*(it - 1);
  const std::span<const std::uint8_t> owner(candidate->hash.data(),
                                            candidate->hash.size());
  const std::span<const std::uint8_t> next(candidate->rdata.next_hash.data(),
                                           candidate->rdata.next_hash.size());
  return dns::nsec3_covers(owner, next, hash) ? candidate : nullptr;
}

}  // namespace zh::zone
