// SHA-1 (FIPS 180-4), implemented from scratch.
//
// SHA-1 is cryptographically broken for collision resistance but is the only
// hash algorithm ever assigned for NSEC3 (RFC 5155 §11: algorithm 1), so a
// faithful NSEC3 reproduction requires it. Do not use it for anything else.
//
// Every message is hashed one block at a time through one kernel: SHA-NI
// where it was compiled in and the CPU has it, the portable scalar round
// otherwise, or wherever ZH_SHA1_IMPL=scalar forces it. The kernel never
// shows in an artefact: both compute the same digests, and CostMeter ticks
// the same logical blocks whichever runs (docs/PERFORMANCE.md).
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
void sha1_compress_scalar(std::uint32_t state[5],
                          const std::uint8_t* block) noexcept;

/// One unmetered single-stream compression, as Sha1 and nsec3_hash run it.
using Sha1CompressFn = void (*)(std::uint32_t state[5],
                                const std::uint8_t* block) noexcept;

/// The kernel: SHA-NI when it was compiled in, the CPU has it and scalar is
/// not forced; sha1_compress_scalar otherwise.
Sha1CompressFn sha1_single_compress() noexcept;

/// True if the scalar kernels are forced, for SHA-1 and SHA-256 alike
/// (sha2.hpp). First use reads ZH_SHA1_IMPL: `scalar` forces them; any
/// other value is diagnosed on stderr and ignored.
bool sha1_scalar_forced() noexcept;

/// Forces the scalar SHA-1 and SHA-256 kernels on or off (--sha1-impl,
/// tests, benches).
void force_sha1_scalar(bool on) noexcept;

/// Incremental SHA-1 hasher.
///
/// Usage: construct, call update() any number of times, then finalize()
/// exactly once. Reuse after finalize() requires reset().
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }
  /// Completes the hash. The object must be reset() before reuse.
  Digest finalize() noexcept;

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept;
  static Digest hash(std::string_view data) noexcept;

 private:
  void compress(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;  // bytes fed so far
  std::size_t buffer_len_ = 0;
};

/// Applies `digest = SHA-1(digest ‖ suffix)` `iterations` times: the RFC
/// 5155 §5 re-hash step, the CVE-2023-50868 cost multiplier. The re-hashes
/// run on one pre-padded `digest ‖ suffix ‖ pad` buffer through the
/// single-stream kernel; digests and the logical and physical block counts
/// are those of hashing each round through Sha1.
void sha1_iterate(Sha1::Digest& digest, std::span<const std::uint8_t> suffix,
                  std::uint16_t iterations) noexcept;

namespace detail {

#if defined(ZH_HAVE_SHANI)
/// True if the CPU has the SHA extensions and SSE4.1: the runtime gate of
/// both SHA-NI kernels. ZH_HAVE_SHANI is private to zh_crypto, so only its
/// sources see these declarations.
bool cpu_has_shani() noexcept;

/// Drop-in for sha1_compress_scalar on the SHA extensions (sha1_shani.cpp).
void sha1_compress_shani(std::uint32_t state[5],
                         const std::uint8_t* block) noexcept;
#endif

}  // namespace detail

}  // namespace zh::crypto
