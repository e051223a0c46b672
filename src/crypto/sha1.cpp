#include "crypto/sha1.hpp"

#include <bit>
#include <cstring>

#include "crypto/cost_meter.hpp"
#include "crypto/sha1_mb.hpp"

namespace zh::crypto {
namespace {

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

void sha1_compress_scalar(std::uint32_t state[5],
                          const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 80; ++i)
    w[i] = std::rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];

  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::compress(const std::uint8_t* block) noexcept {
  CostMeter::add_sha1_blocks(1);
  CostMeter::add_sha1_physical(1);
  sha1_single_compress()(state_.data(), block);
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0 && n > 0) {
    const std::size_t take = std::min(n, kBlockSize - buffer_len_);
    // An empty span has a null data(); memcpy's pointer args must be
    // non-null even for size 0, so the n > 0 guard above is load-bearing.
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      compress(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (n >= kBlockSize) {
    compress(p);
    p += kBlockSize;
    n -= kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

Sha1::Digest Sha1::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros, then 64-bit big-endian bit length.
  const std::uint8_t pad_byte = 0x80;
  update(std::span<const std::uint8_t>(&pad_byte, 1));
  static constexpr std::uint8_t kZeros[kBlockSize] = {};
  while (buffer_len_ != kBlockSize - 8) {
    const std::size_t room =
        buffer_len_ < kBlockSize - 8 ? (kBlockSize - 8 - buffer_len_)
                                     : (kBlockSize - buffer_len_);
    update(std::span<const std::uint8_t>(kZeros, room));
  }
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finalize();
}

Sha1::Digest Sha1::hash(std::string_view data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finalize();
}

}  // namespace zh::crypto
