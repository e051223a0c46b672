// Zone model: an apex plus a canonically-ordered tree of nodes, each node
// holding the RRsets at one owner name. Empty non-terminals are materialised
// so NSEC/NSEC3 chain construction and denial proofs see them (RFC 5155 §7.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "dns/rdata.hpp"
#include "dns/rr.hpp"

namespace zh::zone {

/// Per-zone NSEC3 parameters — the paper's measured variables.
struct Nsec3Params {
  std::uint16_t iterations = 0;       // RFC 9276 Item 2: MUST be 0
  std::vector<std::uint8_t> salt;     // RFC 9276 Item 3: SHOULD be empty
  bool opt_out = false;               // RFC 9276 Items 4/5

  /// RFC 9276 compliance of the parameters themselves (Items 2 + 3).
  bool rfc9276_compliant() const noexcept {
    return iterations == 0 && salt.empty();
  }
};

/// How a zone proves non-existence.
enum class DenialMode {
  kUnsigned,  // no DNSSEC at all
  kNsec,      // plain NSEC (RFC 4034)
  kNsec3,     // hashed denial (RFC 5155)
};

/// One owner name's RRsets.
struct ZoneNode {
  std::map<dns::RrType, dns::RrSet> rrsets;

  bool empty() const noexcept { return rrsets.empty(); }  // empty non-terminal
  const dns::RrSet* find(dns::RrType type) const {
    const auto it = rrsets.find(type);
    return it == rrsets.end() ? nullptr : &it->second;
  }
  bool has(dns::RrType type) const { return rrsets.count(type) > 0; }
};

/// One link of a zone's NSEC3 chain.
///
/// NSEC3 records live outside the ordinary name tree (their owner names are
/// hash labels and must not participate in closest-encloser searches), so
/// the chain is stored as a parallel structure sorted by hash value.
struct Nsec3ChainEntry {
  std::vector<std::uint8_t> hash;  // hash of the original owner name
  dns::Name owner;                 // base32hex(hash).<apex>
  dns::Nsec3Rdata rdata;
  std::uint32_t ttl = 3600;
  std::vector<dns::ResourceRecord> rrsigs;  // signatures over this NSEC3

  /// The NSEC3 record itself as a resource record.
  dns::ResourceRecord to_record() const {
    return dns::ResourceRecord::make(owner, dns::RrType::kNsec3, ttl, rdata);
  }
};

/// A DNS zone under construction or service.
///
/// Mutating methods are used by builders/signers; servers hold the zone via
/// shared_ptr<const Zone> and use the const query surface.
class Zone {
 public:
  explicit Zone(dns::Name apex) : apex_(std::move(apex)) {}

  const dns::Name& apex() const noexcept { return apex_; }

  /// Adds a record; creates intermediate empty non-terminals up to the apex.
  /// Returns false (and ignores the record) if the owner is outside the zone.
  bool add(dns::ResourceRecord rr);

  /// Node lookup; nullptr if the exact name does not exist (ENTs *do* exist).
  const ZoneNode* node(const dns::Name& name) const;
  ZoneNode* mutable_node(const dns::Name& name);

  /// Exact (name, type) RRset; nullptr if absent.
  const dns::RrSet* find(const dns::Name& name, dns::RrType type) const;

  bool name_exists(const dns::Name& name) const { return node(name) != nullptr; }

  /// The longest existing ancestor of `name` within the zone (the closest
  /// encloser, RFC 5155 §7.2.1). Always exists: at worst the apex.
  dns::Name closest_encloser(const dns::Name& name) const;

  /// True if `name` is at or below a delegation point (has an NS RRset at a
  /// non-apex ancestor), i.e. not authoritative data of this zone.
  std::optional<dns::Name> delegation_for(const dns::Name& name) const;

  /// All owner names in canonical order (ENTs included).
  std::vector<dns::Name> names_in_order() const;

  /// Total record count (for stats/dumps).
  std::size_t record_count() const;

  /// The zone's NSEC3PARAM, if published.
  std::optional<dns::Nsec3ParamRdata> nsec3param() const;

  /// SOA at the apex; zones under service always have one.
  const dns::RrSet* soa() const { return find(apex_, dns::RrType::kSoa); }

  /// Presentation-format dump (sorted), for logs and golden tests.
  std::string to_text() const;

  /// Iterates nodes in canonical order.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (const auto& [name, node] : nodes_) fn(name, node);
  }

  // --- NSEC3 chain (populated by the signer for DenialMode::kNsec3) ---

  /// Installs the chain; `entries` must already be sorted by hash.
  void set_nsec3_chain(std::vector<Nsec3ChainEntry> entries,
                       Nsec3Params params);

  const std::vector<Nsec3ChainEntry>& nsec3_entries() const noexcept {
    return nsec3_chain_;
  }
  const std::optional<Nsec3Params>& nsec3_params_used() const noexcept {
    return nsec3_params_;
  }

  /// Entry whose hash equals `hash` exactly (proves existence of the name).
  const Nsec3ChainEntry* nsec3_matching(
      std::span<const std::uint8_t> hash) const;

  /// Entry whose (owner, next] interval covers `hash` (proves absence).
  const Nsec3ChainEntry* nsec3_covering(
      std::span<const std::uint8_t> hash) const;

 private:
  dns::Name apex_;
  std::map<dns::Name, ZoneNode, dns::NameCanonicalLess> nodes_;
  std::vector<Nsec3ChainEntry> nsec3_chain_;  // sorted by hash
  std::optional<Nsec3Params> nsec3_params_;
};

}  // namespace zh::zone
