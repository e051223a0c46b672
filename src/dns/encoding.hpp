// Textual codecs used by DNS presentation formats:
//   base16 (hex)      — NSEC3 salt, DS digests (RFC 4034)
//   base32hex         — NSEC3 owner names (RFC 4648 §7, no padding,
//                       lowercase, per RFC 5155 §8.1)
//   base64            — DNSKEY public keys, RRSIG signatures (RFC 4648 §4)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zh::dns {

std::string base16_encode(std::span<const std::uint8_t> data);

/// Extended-hex base32, lowercase, unpadded — the NSEC3 owner-label form.
std::string base32hex_encode(std::span<const std::uint8_t> data);
/// Accepts upper- or lowercase, with or without '=' padding.
std::optional<std::vector<std::uint8_t>> base32hex_decode(
    std::string_view text);

std::string base64_encode(std::span<const std::uint8_t> data);

}  // namespace zh::dns
