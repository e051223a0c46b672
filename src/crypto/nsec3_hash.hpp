// The NSEC3 hash (RFC 5155 §5) — the object of study of the paper.
//
//   IH(salt, x, 0) = H(x || salt)
//   IH(salt, x, k) = H(IH(salt, x, k-1) || salt)   for k > 0
//   hash(name)     = IH(salt, canonical-wire-form(name), iterations)
//
// `iterations` is the count of *additional* iterations: 0 means one
// application of H. RFC 9276 §3.1 REQUIRES iterations == 0 for new zones;
// CVE-2023-50868 abuses large values to exhaust resolver CPU. The salt, per
// RFC 9276, SHOULD NOT be used at all.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace zh::crypto {

/// NSEC3 hash algorithm identifiers (IANA "DNSSEC NSEC3 Hash Algorithms").
/// Only SHA-1 (1) has ever been assigned.
enum class Nsec3HashAlgorithm : std::uint8_t {
  kSha1 = 1,
};

/// SHA-1 NSEC3 digest: always 20 bytes.
using Nsec3Digest = std::array<std::uint8_t, 20>;

/// Computes the RFC 5155 §5 iterated hash.
///
/// \param owner_wire  The *canonical* wire form of the owner name
///                    (lowercased, uncompressed) — see zh::dns::Name.
/// \param salt        The salt appended at every iteration (may be empty).
/// \param iterations  Number of additional iterations (0 = hash once).
///
/// Logically `iterations + 1` SHA-1 message computations: CostMeter's
/// logical sha1_blocks and nsec3_hashes tick as if every one ran, with salt
/// and name lengths deciding how many compression blocks each needs. The
/// physical work is less when the calling thread's Nsec3DigestMemo
/// (nsec3_memo.hpp) already holds the key; the re-hashes run on one
/// pre-padded buffer through the single-stream kernel (sha1_iterate).
Nsec3Digest nsec3_hash(std::span<const std::uint8_t> owner_wire,
                       std::span<const std::uint8_t> salt,
                       std::uint16_t iterations) noexcept;

}  // namespace zh::crypto
