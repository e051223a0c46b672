#include "crypto/sha1.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/cost_meter.hpp"

namespace zh::crypto {
namespace {

constexpr std::array<std::uint32_t, 5> kIv = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

bool scalar_from_env() noexcept {
  const char* env = std::getenv("ZH_SHA1_IMPL");
  if (env == nullptr || *env == '\0') return false;
  if (std::string_view(env) == "scalar") return true;
  std::fprintf(stderr,
               "# ZH_SHA1_IMPL='%s' is not 'scalar'; keeping the default "
               "kernel\n",
               env);
  return false;
}

std::atomic<bool>& scalar_flag() noexcept {
  static std::atomic<bool> forced{scalar_from_env()};
  return forced;
}

/// The RFC 5155 re-hash message `digest ‖ suffix` pre-padded in one buffer.
/// NSEC3 salts are at most 255 bytes, so five blocks always suffice; longer
/// suffixes take the streaming Sha1 path.
constexpr std::size_t kMaxIterateBuf = 5 * Sha1::kBlockSize;

/// Blocks a `digest ‖ suffix` message pads to, or 0 if it outgrows
/// kMaxIterateBuf.
std::size_t iterate_blocks(std::size_t suffix_len) noexcept {
  const std::size_t nblocks =
      (Sha1::kDigestSize + suffix_len + 8) / Sha1::kBlockSize + 1;
  return nblocks * Sha1::kBlockSize <= kMaxIterateBuf ? nblocks : 0;
}

/// Writes the constant part of a re-hash message: suffix, padding, bit
/// length. The first kDigestSize bytes are left for the digest.
void prepare_iterate_buffer(std::uint8_t* buf,
                            std::span<const std::uint8_t> suffix,
                            std::size_t nblocks) noexcept {
  const std::size_t msg_len = Sha1::kDigestSize + suffix.size();
  std::memset(buf, 0, nblocks * Sha1::kBlockSize);
  if (!suffix.empty())
    std::memcpy(buf + Sha1::kDigestSize, suffix.data(), suffix.size());
  buf[msg_len] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg_len) * 8;
  std::uint8_t* p = buf + nblocks * Sha1::kBlockSize - 8;
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
}

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

#if defined(ZH_HAVE_SHANI)
bool detail::cpu_has_shani() noexcept {
  static const bool shani =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  return shani;
}
#endif

Sha1CompressFn sha1_single_compress() noexcept {
#if defined(ZH_HAVE_SHANI)
  if (detail::cpu_has_shani() && !sha1_scalar_forced())
    return detail::sha1_compress_shani;
#endif
  return sha1_compress_scalar;
}

bool sha1_scalar_forced() noexcept {
  return scalar_flag().load(std::memory_order_relaxed);
}

void force_sha1_scalar(bool on) noexcept {
  scalar_flag().store(on, std::memory_order_relaxed);
}

void Sha1::reset() noexcept {
  state_ = kIv;
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

void sha1_iterate(Sha1::Digest& digest, std::span<const std::uint8_t> suffix,
                  std::uint16_t iterations) noexcept {
  if (iterations == 0) return;
  const std::size_t nblocks = iterate_blocks(suffix.size());
  if (nblocks == 0) {
    for (std::uint16_t i = 0; i < iterations; ++i) {
      Sha1 h;  // Sha1::compress ticks logical + physical itself
      h.update(std::span<const std::uint8_t>(digest.data(), digest.size()));
      h.update(suffix);
      digest = h.finalize();
    }
    return;
  }

  alignas(16) std::uint8_t buf[kMaxIterateBuf];
  prepare_iterate_buffer(buf, suffix, nblocks);
  std::memcpy(buf, digest.data(), Sha1::kDigestSize);
  const Sha1CompressFn compress = sha1_single_compress();
  for (std::uint16_t it = 0; it < iterations; ++it) {
    std::array<std::uint32_t, 5> state = kIv;
    for (std::size_t block = 0; block < nblocks; ++block)
      compress(state.data(), buf + block * Sha1::kBlockSize);
    for (int word = 0; word < 5; ++word)
      store_be32(buf + 4 * word, state[word]);
  }
  std::memcpy(digest.data(), buf, Sha1::kDigestSize);

  const std::uint64_t processed =
      static_cast<std::uint64_t>(iterations) * nblocks;
  CostMeter::add_sha1_blocks(processed);
  CostMeter::add_sha1_physical(processed);
}

}  // namespace zh::crypto
