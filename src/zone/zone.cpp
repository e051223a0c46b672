#include "zone/zone.hpp"

#include <algorithm>
#include <span>

#include "dns/dnssec.hpp"

namespace zh::zone {

bool Zone::add(dns::ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(apex_)) return false;

  // Materialise empty non-terminals between the apex and the owner.
  for (std::size_t labels = apex_.label_count() + 1;
       labels < rr.name.label_count(); ++labels) {
    const dns::Name ancestor = rr.name.ancestor_with_labels(labels);
    nodes_.try_emplace(ancestor);
  }

  ZoneNode& node = nodes_[rr.name];
  auto [it, inserted] =
      node.rrsets.try_emplace(rr.type, dns::RrSet{rr.name, rr.type, rr.klass,
                                                  rr.ttl, {}});
  dns::RrSet& set = it->second;
  set.ttl = std::min(set.ttl, rr.ttl);
  // Ignore exact duplicates (RFC 2181 §5).
  if (std::find(set.rdatas.begin(), set.rdatas.end(), rr.rdata) ==
      set.rdatas.end())
    set.rdatas.push_back(std::move(rr.rdata));
  return true;
}

const ZoneNode* Zone::node(const dns::Name& name) const {
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

ZoneNode* Zone::mutable_node(const dns::Name& name) {
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
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

std::vector<dns::Name> Zone::names_in_order() const {
  std::vector<dns::Name> out;
  out.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) out.push_back(name);
  return out;
}

std::size_t Zone::record_count() const {
  std::size_t count = 0;
  for (const auto& [name, node] : nodes_)
    for (const auto& [type, set] : node.rrsets) count += set.size();
  return count;
}

std::optional<dns::Nsec3ParamRdata> Zone::nsec3param() const {
  const dns::RrSet* set = find(apex_, dns::RrType::kNsec3Param);
  if (!set || set->empty()) return std::nullopt;
  return dns::Nsec3ParamRdata::decode(std::span<const std::uint8_t>(
      set->rdatas.front().data(), set->rdatas.front().size()));
}

std::string Zone::to_text() const {
  std::string out;
  for (const auto& [name, node] : nodes_) {
    for (const auto& [type, set] : node.rrsets) {
      for (const auto& rr : set.to_records()) {
        out += rr.to_string();
        out += '\n';
      }
    }
  }
  // The NSEC3 chain lives outside the name tree; dump it too.
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
