// DNSSEC zone signer: installs DNSKEYs, builds the NSEC or NSEC3 chain, and
// signs every authoritative RRset (RFC 4035 §2, RFC 5155 §7.1).
//
// Key material is derived deterministically from the zone apex so that a
// rebuilt synthetic ecosystem is byte-identical; validity windows are
// explicit so the testbed can produce `expired` and `it-2501-expired` zones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dns/rdata.hpp"
#include "zone/zone.hpp"

namespace zh::zone {

/// The simulation's epoch: 2024-03-15 00:00:00 UTC — mid-measurement-window
/// of the paper (domains scanned March 2024, resolvers April 2024).
constexpr std::uint32_t kSimNow = 1710460800;

/// Signing configuration for one zone.
struct SignerConfig {
  DenialMode denial = DenialMode::kNsec3;
  Nsec3Params nsec3;

  std::uint32_t inception = kSimNow - 7 * 86400;
  std::uint32_t expiration = kSimNow + 23 * 86400;

  /// Overrides expiration for the RRSIGs covering NSEC3 records only —
  /// builds the paper's `it-2501-expired` probe zone (§4.2).
  std::optional<std::uint32_t> nsec3_rrsig_expiration;

  std::uint32_t dnskey_ttl = 3600;
  std::uint32_t nsec_ttl = 3600;

  /// Seed for deterministic key derivation; defaults to the apex name.
  std::string key_seed;
};

/// Keys and parent-side material produced by signing.
struct SigningResult {
  dns::DnskeyRdata ksk;
  dns::DnskeyRdata zsk;
  /// DS for the parent zone (digest of the KSK).
  dns::DsRdata ds;
};

/// Signs `zone` in place. Idempotence is not supported: call exactly once
/// on a fully built (but unsigned) zone. The signer freezes the zone before
/// it walks the nodes and adds records only at names the zone holds, so a
/// signed zone comes back frozen.
///
/// Behaviour:
///  * apex gains DNSKEY (KSK+ZSK) and, for NSEC3, an NSEC3PARAM record;
///  * every authoritative RRset gains RRSIGs (delegation NS and glue are
///    not signed, per RFC 4035 §2.2);
///  * DenialMode::kNsec adds NSEC records at the zone's nodes;
///    DenialMode::kNsec3 fills the zone's NSEC3 chain (opt-out honoured:
///    insecure delegations are omitted when params.opt_out is set);
///  * DenialMode::kUnsigned returns keys that are simply unused.
SigningResult sign_zone(Zone& zone, const SignerConfig& config);

/// Derives the DNSKEY a zone *would* publish without signing it (used by
/// trust-anchor setup and tests).
dns::DnskeyRdata derive_dnskey(const std::string& seed, bool ksk);

}  // namespace zh::zone
