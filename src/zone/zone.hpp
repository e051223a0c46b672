// Zone model: an apex plus the nodes below it, each node holding the RRsets
// at one owner name. Empty non-terminals are materialised so NSEC/NSEC3
// chain construction and denial proofs see them (RFC 5155 §7.1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

/// One owner name's RRsets: at most one per type, sorted by type.
struct ZoneNode {
  std::vector<dns::RrSet> rrsets;

  bool empty() const noexcept { return rrsets.empty(); }  // empty non-terminal
  const dns::RrSet* find(dns::RrType type) const noexcept {
    for (const dns::RrSet& set : rrsets) {
      if (set.type == type) return &set;
      if (set.type > type) break;
    }
    return nullptr;
  }
  bool has(dns::RrType type) const noexcept { return find(type) != nullptr; }
};

/// One link of a zone's NSEC3 chain.
///
/// NSEC3 records live outside the zone's nodes (their owner names are hash
/// labels and must not participate in closest-encloser searches), so the
/// chain is stored as a parallel structure sorted by hash value.
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
/// The nodes live in one vector, found by name through an open-addressed
/// index keyed by Name::hash(), so lookups work at any time. Ordered reads
/// (for_each_node, to_text, nsec_covering) walk the vector in RFC 4034 §6.1
/// canonical order, which freeze() establishes; an ordered read of an
/// unfrozen zone throws std::logic_error. Builders and the signer mutate the
/// zone; servers hold it frozen through shared_ptr<const Zone>. No const
/// method changes any state, so a frozen zone may be read from many threads.
class Zone {
 public:
  explicit Zone(dns::Name apex) : apex_(std::move(apex)) {}

  const dns::Name& apex() const noexcept { return apex_; }

  /// Adds a record; creates intermediate empty non-terminals up to the apex.
  /// Returns false (and ignores the record) if the owner is outside the zone.
  /// A record at a name the zone already holds keeps it frozen; a new name
  /// unfreezes it.
  bool add(dns::ResourceRecord rr);

  /// Sorts the nodes into canonical order once, rebuilds the index and sizes
  /// the storage to the node count. A no-op on a frozen zone.
  void freeze();

  /// True from freeze() until a record adds a new name.
  bool frozen() const noexcept { return frozen_; }

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

  /// Total record count (for stats/dumps).
  std::size_t record_count() const;

  /// The zone's NSEC3PARAM, if published.
  std::optional<dns::Nsec3ParamRdata> nsec3param() const;

  /// SOA at the apex; zones under service always have one.
  const dns::RrSet* soa() const { return find(apex_, dns::RrType::kSoa); }

  /// Presentation-format dump in canonical order, for logs and golden
  /// tests. Ordered read.
  std::string to_text() const;

  /// Iterates nodes in canonical order. Ordered read.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    require_frozen("for_each_node");
    for (const Entry& entry : entries_) fn(entry.name, entry.node);
  }

  /// The node owning the nearest NSEC at or before `name` in canonical
  /// order, wrapping from the first node to the last: the NSEC that matches
  /// or covers `name`. nullptr if no node owns an NSEC. Ordered read.
  const ZoneNode* nsec_covering(const dns::Name& name) const;

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
  struct Entry {
    dns::Name name;
    ZoneNode node;
  };

  /// Throws std::logic_error naming `operation` unless the zone is frozen.
  void require_frozen(const char* operation) const;
  /// Position of `name` in entries_, or entries_.size() if absent.
  std::size_t position_of(const dns::Name& name) const noexcept;
  /// Appends a node for `name` (which must be absent); returns its position.
  std::size_t insert_node(dns::Name name);
  void index_position(std::size_t position) noexcept;
  void rebuild_index();

  dns::Name apex_;
  std::vector<Entry> entries_;  // canonical order while frozen_
  // Linear-probing slots over entries_: position + 1, or 0 when empty. The
  // size is a power of two, at least twice the node count.
  std::vector<std::uint32_t> index_;
  bool frozen_ = false;
  std::vector<Nsec3ChainEntry> nsec3_chain_;  // sorted by hash
  std::optional<Nsec3Params> nsec3_params_;
};

}  // namespace zh::zone
