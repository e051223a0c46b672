// Unit + property tests for base16 / base32hex / base64 codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "dns/encoding.hpp"

namespace zh::dns {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> list) {
  std::vector<std::uint8_t> out;
  for (const int v : list) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(Base16, Encode) {
  EXPECT_EQ(base16_encode(bytes({0xaa, 0xbb, 0xcc, 0xdd})), "aabbccdd");
  EXPECT_EQ(base16_encode({}), "");
}

// RFC 4648 §10 base32hex vectors (lowercased, unpadded, as NSEC3 uses them).
TEST(Base32Hex, Rfc4648Vectors) {
  EXPECT_EQ(base32hex_encode({}), "");
  const auto f = bytes({'f'});
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(f)), "co");
  const auto fo = bytes({'f', 'o'});
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(fo)), "cpng");
  const auto foo = bytes({'f', 'o', 'o'});
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(foo)), "cpnmu");
  const auto foob = bytes({'f', 'o', 'o', 'b'});
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(foob)), "cpnmuog");
  const auto fooba = bytes({'f', 'o', 'o', 'b', 'a'});
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(fooba)),
            "cpnmuoj1");
  const auto foobar = bytes({'f', 'o', 'o', 'b', 'a', 'r'});
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(foobar)),
            "cpnmuoj1e8");
}

TEST(Base32Hex, DecodeAcceptsPaddingAndCase) {
  const auto expected = bytes({'f', 'o'});
  EXPECT_EQ(base32hex_decode("cpng"), expected);
  EXPECT_EQ(base32hex_decode("CPNG===="), expected);
}

TEST(Base32Hex, DecodeRejectsBadCharacters) {
  EXPECT_FALSE(base32hex_decode("wxyz"));  // w..z outside extended-hex range
  EXPECT_FALSE(base32hex_decode("cp!g"));
}

TEST(Base32Hex, DecodeRejectsNonzeroTrailingBits) {
  // 'v' = 0b11111: a single symbol leaves 5 nonzero leftover bits.
  EXPECT_FALSE(base32hex_decode("v"));
}

TEST(Base32Hex, Nsec3DigestLength) {
  // 20-byte SHA-1 → exactly 32 base32hex characters, no padding.
  const std::vector<std::uint8_t> digest(20, 0xab);
  EXPECT_EQ(base32hex_encode(std::span<const std::uint8_t>(digest)).size(),
            32u);
}

// RFC 4648 §10 base64 vectors.
TEST(Base64, Rfc4648Vectors) {
  const auto f = bytes({'f'});
  EXPECT_EQ(base64_encode(std::span<const std::uint8_t>(f)), "Zg==");
  const auto fo = bytes({'f', 'o'});
  EXPECT_EQ(base64_encode(std::span<const std::uint8_t>(fo)), "Zm8=");
  const auto foo = bytes({'f', 'o', 'o'});
  EXPECT_EQ(base64_encode(std::span<const std::uint8_t>(foo)), "Zm9v");
  const auto foobar = bytes({'f', 'o', 'o', 'b', 'a', 'r'});
  EXPECT_EQ(base64_encode(std::span<const std::uint8_t>(foobar)), "Zm9vYmFy");
}

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, AllThreeCodecs) {
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  const std::span<const std::uint8_t> span(data);
  EXPECT_EQ(base32hex_decode(base32hex_encode(span)), data);
  // base16 and base64 are encode-only: check them against a byte-by-byte
  // hex reference and against the concatenation of 3-byte groups.
  std::string hex;
  std::string groups;
  for (std::size_t i = 0; i < data.size(); ++i) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", data[i]);
    hex += buf;
    if (i % 3 == 0)
      groups += base64_encode(span.subspan(i, std::min<std::size_t>(
                                                  3, data.size() - i)));
  }
  EXPECT_EQ(base16_encode(span), hex);
  EXPECT_EQ(base64_encode(span), groups);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CodecRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 19, 20,
                                           21, 32, 63, 64, 65, 255, 1024));

}  // namespace
}  // namespace zh::dns
