// SHA-256 (FIPS 180-4), implemented in-tree.
//
// SHA-256 backs the simulated DNSSEC signing algorithm (HMAC-SHA-256) and
// every DS digest that is not SHA-1: dns::make_ds hashes all other digest
// types with it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace zh::crypto {

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

}  // namespace zh::crypto
