#include "dns/encoding.hpp"

#include <array>
#include <cstring>

namespace zh::dns {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";
constexpr char kBase32HexDigits[] = "0123456789abcdefghijklmnopqrstuv";
constexpr char kBase64Digits[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int base32hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'v') return c - 'a' + 10;
  if (c >= 'A' && c <= 'V') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string base16_encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::string base32hex_encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve((data.size() * 8 + 4) / 5);
  std::uint32_t bits = 0;
  int nbits = 0;
  for (const std::uint8_t b : data) {
    bits = (bits << 8) | b;
    nbits += 8;
    while (nbits >= 5) {
      nbits -= 5;
      out.push_back(kBase32HexDigits[(bits >> nbits) & 0x1f]);
    }
  }
  if (nbits > 0) {
    out.push_back(kBase32HexDigits[(bits << (5 - nbits)) & 0x1f]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> base32hex_decode(
    std::string_view text) {
  // Strip trailing padding, if present.
  while (!text.empty() && text.back() == '=') text.remove_suffix(1);

  std::vector<std::uint8_t> out;
  out.reserve(text.size() * 5 / 8);
  std::uint32_t bits = 0;
  int nbits = 0;
  for (const char c : text) {
    const int v = base32hex_value(c);
    if (v < 0) return std::nullopt;
    bits = (bits << 5) | static_cast<std::uint32_t>(v);
    nbits += 5;
    if (nbits >= 8) {
      nbits -= 8;
      out.push_back(static_cast<std::uint8_t>((bits >> nbits) & 0xff));
    }
  }
  // Leftover bits must be zero padding only.
  if (nbits > 0 && (bits & ((1u << nbits) - 1)) != 0) return std::nullopt;
  return out;
}

std::string base64_encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= data.size(); i += 3) {
    const std::uint32_t v = (std::uint32_t{data[i]} << 16) |
                            (std::uint32_t{data[i + 1]} << 8) |
                            std::uint32_t{data[i + 2]};
    out.push_back(kBase64Digits[(v >> 18) & 0x3f]);
    out.push_back(kBase64Digits[(v >> 12) & 0x3f]);
    out.push_back(kBase64Digits[(v >> 6) & 0x3f]);
    out.push_back(kBase64Digits[v & 0x3f]);
  }
  const std::size_t rem = data.size() - i;
  if (rem == 1) {
    const std::uint32_t v = std::uint32_t{data[i]} << 16;
    out.push_back(kBase64Digits[(v >> 18) & 0x3f]);
    out.push_back(kBase64Digits[(v >> 12) & 0x3f]);
    out.push_back('=');
    out.push_back('=');
  } else if (rem == 2) {
    const std::uint32_t v =
        (std::uint32_t{data[i]} << 16) | (std::uint32_t{data[i + 1]} << 8);
    out.push_back(kBase64Digits[(v >> 18) & 0x3f]);
    out.push_back(kBase64Digits[(v >> 12) & 0x3f]);
    out.push_back(kBase64Digits[(v >> 6) & 0x3f]);
    out.push_back('=');
  }
  return out;
}

}  // namespace zh::dns
