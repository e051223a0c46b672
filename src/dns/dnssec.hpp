// DNSSEC helpers shared by signer and validator:
//   - RFC 4034 §3.1.8.1 signed-data construction (canonical RRset form)
//   - DS digest construction (RFC 4034 §5.1.4)
//   - NSEC3 owner-name computation (RFC 5155 §3 / §5)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/nsec3_hash.hpp"
#include "dns/name.hpp"
#include "dns/rdata.hpp"
#include "dns/rr.hpp"

namespace zh::dns {

/// Canonical rdata ordering (RFC 4034 §6.3): byte-wise, treating data as
/// left-justified unsigned octet sequences (absent octets sort first).
bool canonical_rdata_less(const RdataBytes& a, const RdataBytes& b) noexcept;

/// Writes the exact byte string an RRSIG covers (RFC 4034 §3.1.8.1) into
/// `out`, replacing what it held: RRSIG_RDATA (pre-signature fields) ||
/// canonical form of each RR, rdatas sorted canonically and deduplicated,
/// owner lowercased, TTL = presig.original_ttl (rrset.ttl is not read).
/// `owner` is rrset.name, or for a wildcard-expanded RRset the wildcard it
/// was expanded from (RFC 4035 §5.3.2). A caller that reuses `out` keeps
/// its capacity, so signature after signature allocates nothing once the
/// buffer has grown.
void build_signed_data(const RrsigRdata& presig, const RrSet& rrset,
                       const Name& owner, std::vector<std::uint8_t>& out);

/// DS record for a DNSKEY: digest over (canonical owner wire || rdata).
DsRdata make_ds(const Name& owner, const DnskeyRdata& key,
                std::uint8_t digest_type = DsRdata::kDigestSha256);

/// True if `ds` matches `key` at `owner` (digest + key tag + algorithm).
bool ds_matches_key(const DsRdata& ds, const Name& owner,
                    const DnskeyRdata& key);

/// NSEC3 hash of `name` under the given parameters, through
/// crypto::nsec3_hash (and so the calling thread's digest memo). Ticks the
/// cost meter; allocates nothing.
crypto::Nsec3Digest nsec3_hash_name(const Name& name,
                                    std::span<const std::uint8_t> salt,
                                    std::uint16_t iterations) noexcept;

/// The owner name of the NSEC3 record for `name` in `zone`:
/// base32hex(hash).zone.
Name nsec3_owner_name(const Name& name, const Name& zone,
                      std::span<const std::uint8_t> salt,
                      std::uint16_t iterations);

/// Extracts the hash encoded in an NSEC3 owner name's first label;
/// nullopt if the label is not valid base32hex or the name is not in zone.
std::optional<std::vector<std::uint8_t>> nsec3_owner_hash(const Name& owner,
                                                          const Name& zone);

/// RFC 4034 §3.1.3 label count for an owner name: labels excluding root,
/// and excluding a leftmost "*" for wildcard-expanded records.
std::uint8_t rrsig_label_count(const Name& owner) noexcept;

/// Hash ordering on the NSEC3 circle: true if `hash` falls strictly between
/// `owner_hash` and `next_hash`, handling the wrap-around at the chain end
/// (RFC 5155 §8.3 "covering" test).
bool nsec3_covers(std::span<const std::uint8_t> owner_hash,
                  std::span<const std::uint8_t> next_hash,
                  std::span<const std::uint8_t> hash) noexcept;

}  // namespace zh::dns
