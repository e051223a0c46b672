#include "crypto/nsec3_hash.hpp"

#include "crypto/cost_meter.hpp"
#include "crypto/nsec3_memo.hpp"
#include "crypto/sha1.hpp"

namespace zh::crypto {
namespace {

/// IH(salt, owner, iterations) from scratch: H(owner ‖ salt) streamed, then
/// the re-hashes on one pre-padded buffer.
Nsec3Digest compute_nsec3_hash(std::span<const std::uint8_t> owner_wire,
                               std::span<const std::uint8_t> salt,
                               std::uint16_t iterations) noexcept {
  Sha1 h;
  h.update(owner_wire);
  h.update(salt);
  Nsec3Digest digest = h.finalize();
  sha1_iterate(digest, salt, iterations);
  return digest;
}

}  // namespace

Nsec3Digest nsec3_hash(std::span<const std::uint8_t> owner_wire,
                       std::span<const std::uint8_t> salt,
                       std::uint16_t iterations) noexcept {
  CostMeter::add_nsec3_hash();
  if (!Nsec3DigestMemo::covers(owner_wire, salt))
    return compute_nsec3_hash(owner_wire, salt, iterations);

  // A hit credits the logical blocks the key cost and hashes nothing.
  Nsec3DigestMemo& memo = Nsec3DigestMemo::instance();
  if (const auto* hit = memo.find(owner_wire, salt, iterations)) {
    CostMeter::add_sha1_blocks(hit->sha1_blocks);
    return hit->digest;
  }
  const std::uint64_t blocks_before = CostMeter::sha1_blocks();
  const Nsec3Digest digest = compute_nsec3_hash(owner_wire, salt, iterations);
  memo.insert(owner_wire, salt, iterations,
              {digest, static_cast<std::uint32_t>(CostMeter::sha1_blocks() -
                                                  blocks_before)});
  return digest;
}

}  // namespace zh::crypto
