// SHA-1 (FIPS 180-4), implemented from scratch.
//
// SHA-1 is cryptographically broken for collision resistance but is the only
// hash algorithm ever assigned for NSEC3 (RFC 5155 §11: algorithm 1), so a
// faithful NSEC3 reproduction requires it. Do not use it for anything else.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace zh::crypto {

/// One unmetered compression round: folds the 64-byte `block` into `state`.
/// The one scalar round implementation: the single-stream dispatch
/// (sha1_single_compress in sha1_mb.hpp) and the batch kernels' scalar lane
/// both run it.
void sha1_compress_scalar(std::uint32_t state[5],
                          const std::uint8_t* block) noexcept;

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

}  // namespace zh::crypto
