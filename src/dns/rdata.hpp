// Typed RDATA views (RFC 1035, 4034, 5155).
//
// Resource records carry their RDATA as raw *uncompressed* bytes
// (ResourceRecord::rdata); the structs here parse those bytes into typed
// form and serialize typed form back. Decode functions return nullopt on
// malformed input — the scanner treats such records exactly as a real
// measurement pipeline treats unparseable responses.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "dns/type_bitmap.hpp"
#include "dns/types.hpp"

namespace zh::dns {

using RdataBytes = std::vector<std::uint8_t>;

/// A (IPv4 address).
struct ARdata {
  std::array<std::uint8_t, 4> address{};

  RdataBytes encode() const;
  static std::optional<ARdata> decode(std::span<const std::uint8_t> rdata);
  std::string to_string() const;
};

/// AAAA (IPv6 address).
struct AaaaRdata {
  std::array<std::uint8_t, 16> address{};

  RdataBytes encode() const;
  static std::optional<AaaaRdata> decode(std::span<const std::uint8_t> rdata);
  std::string to_string() const;
};

/// NS (authoritative name server).
struct NsRdata {
  Name nsdname;

  RdataBytes encode() const;
  static std::optional<NsRdata> decode(std::span<const std::uint8_t> rdata);
};

/// CNAME.
struct CnameRdata {
  Name target;

  RdataBytes encode() const;
  static std::optional<CnameRdata> decode(std::span<const std::uint8_t> rdata);
};

/// MX.
struct MxRdata {
  std::uint16_t preference = 0;
  Name exchange;

  RdataBytes encode() const;
  static std::optional<MxRdata> decode(std::span<const std::uint8_t> rdata);
};

/// TXT (one or more character-strings).
struct TxtRdata {
  std::vector<std::string> strings;

  RdataBytes encode() const;
  static std::optional<TxtRdata> decode(std::span<const std::uint8_t> rdata);
};

/// SOA.
struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 7200;
  std::uint32_t retry = 3600;
  std::uint32_t expire = 1209600;
  std::uint32_t minimum = 3600;  // also the negative-caching TTL

  RdataBytes encode() const;
  static std::optional<SoaRdata> decode(std::span<const std::uint8_t> rdata);
};

/// DNSKEY (RFC 4034 §2).
struct DnskeyRdata {
  static constexpr std::uint16_t kFlagZoneKey = 0x0100;
  static constexpr std::uint16_t kFlagSep = 0x0001;  // KSK marker

  std::uint16_t flags = kFlagZoneKey;
  std::uint8_t protocol = 3;  // always 3 per RFC 4034
  std::uint8_t algorithm = 0;
  std::vector<std::uint8_t> public_key;

  bool is_zone_key() const noexcept { return flags & kFlagZoneKey; }
  bool is_sep() const noexcept { return flags & kFlagSep; }

  /// RFC 4034 Appendix B key tag over the wire rdata, summed from the
  /// fields without encoding them.
  std::uint16_t key_tag() const noexcept;

  RdataBytes encode() const;
  static std::optional<DnskeyRdata> decode(std::span<const std::uint8_t> rdata);
};

/// RRSIG (RFC 4034 §3).
struct RrsigRdata {
  std::uint16_t type_covered = 0;
  std::uint8_t algorithm = 0;
  std::uint8_t labels = 0;  // owner label count, wildcard excluded
  std::uint32_t original_ttl = 0;
  std::uint32_t expiration = 0;  // absolute seconds (simulation clock)
  std::uint32_t inception = 0;
  std::uint16_t key_tag = 0;
  Name signer;
  std::vector<std::uint8_t> signature;

  RrType covered() const noexcept { return static_cast<RrType>(type_covered); }

  RdataBytes encode() const;
  /// Appends the wire form with the signature field left empty — the prefix
  /// that gets concatenated with the canonical RRset when computing signed
  /// data, and the one encoder of those fields encode() also runs.
  void append_presignature(std::vector<std::uint8_t>& out) const;
  static std::optional<RrsigRdata> decode(std::span<const std::uint8_t> rdata);
};

/// DS (RFC 4034 §5).
struct DsRdata {
  static constexpr std::uint8_t kDigestSha1 = 1;
  static constexpr std::uint8_t kDigestSha256 = 2;

  std::uint16_t key_tag = 0;
  std::uint8_t algorithm = 0;
  std::uint8_t digest_type = kDigestSha256;
  std::vector<std::uint8_t> digest;

  RdataBytes encode() const;
  static std::optional<DsRdata> decode(std::span<const std::uint8_t> rdata);
};

/// NSEC (RFC 4034 §4).
struct NsecRdata {
  Name next_domain;
  TypeBitmap types;

  RdataBytes encode() const;
  static std::optional<NsecRdata> decode(std::span<const std::uint8_t> rdata);
};

/// NSEC3 (RFC 5155 §3). The record at the heart of the paper.
struct Nsec3Rdata {
  static constexpr std::uint8_t kFlagOptOut = 0x01;

  std::uint8_t hash_algorithm = 1;  // SHA-1, the only assigned value
  std::uint8_t flags = 0;
  std::uint16_t iterations = 0;  // *additional* iterations — RFC 9276: MUST be 0
  std::vector<std::uint8_t> salt;           // RFC 9276: SHOULD be empty
  std::vector<std::uint8_t> next_hash;      // 20 bytes for SHA-1
  TypeBitmap types;

  bool opt_out() const noexcept { return flags & kFlagOptOut; }

  RdataBytes encode() const;
  static std::optional<Nsec3Rdata> decode(std::span<const std::uint8_t> rdata);
};

/// NSEC3PARAM (RFC 5155 §4): the zone's advertised NSEC3 parameters.
struct Nsec3ParamRdata {
  std::uint8_t hash_algorithm = 1;
  std::uint8_t flags = 0;  // always 0 in NSEC3PARAM
  std::uint16_t iterations = 0;
  std::vector<std::uint8_t> salt;

  RdataBytes encode() const;
  static std::optional<Nsec3ParamRdata> decode(
      std::span<const std::uint8_t> rdata);
};

}  // namespace zh::dns
