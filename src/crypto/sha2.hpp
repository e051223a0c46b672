// SHA-256 (FIPS 180-4), implemented in-tree.
//
// SHA-256 backs the simulated DNSSEC signing algorithm (HMAC-SHA-256) and
// every DS digest that is not SHA-1: dns::make_ds hashes all other digest
// types with it.
//
// Every block goes through one kernel, picked the way SHA-1 picks its own
// (sha1.hpp): SHA-NI where it was compiled in and the CPU has it, the
// portable scalar round otherwise or wherever ZH_SHA1_IMPL=scalar forces
// it. Both compute the same digests and tick one logical sha2 block per
// block (docs/PERFORMANCE.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace zh::crypto {

/// One unmetered compression round: folds the 64-byte `block` into `state`.
/// The portable kernel, and the reference every other kernel is tested
/// against.
void sha256_compress_scalar(std::uint32_t state[8],
                            const std::uint8_t* block) noexcept;

/// One unmetered compression, as Sha256 runs it.
using Sha256CompressFn = void (*)(std::uint32_t state[8],
                                  const std::uint8_t* block) noexcept;

/// The kernel: SHA-NI when it was compiled in, the CPU has it and scalar is
/// not forced (sha1_scalar_forced() forces both hashes);
/// sha256_compress_scalar otherwise.
Sha256CompressFn sha256_compress() noexcept;

/// Incremental SHA-256 hasher.
///
/// Usage: construct, call update() any number of times, then finalize()
/// exactly once. Reuse after finalize() requires reset().
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }
  /// Completes the hash. The object must be reset() before reuse.
  Digest finalize() noexcept;

  static Digest hash(std::span<const std::uint8_t> data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }
  static Digest hash(std::string_view data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }

 private:
  void compress(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

namespace detail {

#if defined(ZH_HAVE_SHANI)
/// Drop-in for sha256_compress_scalar on the SHA extensions
/// (sha256_shani.cpp). ZH_HAVE_SHANI is private to zh_crypto, so only its
/// sources see it.
void sha256_compress_shani(std::uint32_t state[8],
                           const std::uint8_t* block) noexcept;

/// The FIPS 180-4 §4.2.2 round constants K[0..63], shared by both kernels.
extern const std::uint32_t kSha256RoundConstants[64];
#endif

}  // namespace detail

}  // namespace zh::crypto
