// Per-thread memo of NSEC3 digests.
//
// Proof work repeats itself. A validating resolver re-hashes the zone apex
// and `*.apex` for every negative answer it checks, and in the simulation
// every qname is hashed once by the authoritative server building the proof
// and again by the resolver checking it, on the same thread. On the Fig. 3
// probe sweep about nine in ten nsec3_hash calls recompute a digest the
// thread already has. crypto::nsec3_hash consults this memo first.
//
// The determinism contract (docs/DETERMINISM.md): a hit credits the
// *logical* cost the hash would have ticked — its SHA-1 blocks and one NSEC3
// hash — and no physical block, so every artefact is byte-identical with the
// memo on or off (ZH_CHAIN_MEMO=0). Only CostMeter::sha1_physical_blocks()
// reveals the saving.
//
// The memo is thread-local: campaign workers are one-thread-one-Internet, so
// no entry is ever shared and no lock is taken.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "crypto/nsec3_hash.hpp"

namespace zh::crypto {

/// Bounded, direct-mapped memo of nsec3_hash results, keyed exactly on
/// (canonical owner wire, salt, iterations).
///
/// Entries live in one flat array of kCapacity slots, allocated on the
/// thread's first insert; no later call allocates. A cheap mix of the key
/// picks the one slot a key may occupy, and an insert overwrites whatever
/// that slot held, so the memo never holds more than kCapacity entries. A
/// slot matches only on the key itself — iterations, owner length, salt
/// length and every byte — so two keys never collide.
class Nsec3DigestMemo {
 public:
  /// Slots (~80 KB). On the Fig. 3 sweep 512 direct-mapped slots leave
  /// physical SHA-1 work within 1 % of what no eviction at all would; 256
  /// add 19 % in conflict misses.
  static constexpr std::size_t kCapacity = 512;
  /// Longest owner ‖ salt the memo stores inline; longer keys bypass it.
  static constexpr std::size_t kMaxKeyBytes = 128;

  /// A stored digest and the logical SHA-1 blocks computing it ticked.
  struct Entry {
    Nsec3Digest digest;
    std::uint32_t sha1_blocks;
  };

  /// The calling thread's memo.
  static Nsec3DigestMemo& instance();

  /// Process-wide switch. First use reads ZH_CHAIN_MEMO: 0 switches the
  /// memo off, any other integer leaves it on, and anything else is
  /// diagnosed on stderr and leaves it on.
  static bool enabled() noexcept;
  /// Pins the switch (bench --chain-memo flag, micro-benchmarks).
  static void set_enabled(bool on) noexcept;

  /// True if nsec3_hash consults the memo for this key: the memo is
  /// enabled and owner ‖ salt fits in kMaxKeyBytes.
  static bool covers(std::span<const std::uint8_t> owner_wire,
                     std::span<const std::uint8_t> salt) noexcept;

  /// The entry stored for a covered key, or null. Valid until the next
  /// insert or clear.
  const Entry* find(std::span<const std::uint8_t> owner_wire,
                    std::span<const std::uint8_t> salt,
                    std::uint16_t iterations) const noexcept;

  /// Stores a covered key's entry in the key's slot, evicting its holder.
  void insert(std::span<const std::uint8_t> owner_wire,
              std::span<const std::uint8_t> salt, std::uint16_t iterations,
              const Entry& entry);

  /// Entries held (never above kCapacity).
  std::size_t size() const noexcept { return size_; }

  /// Drops every entry.
  void clear() noexcept;

 private:
  struct Slot {
    Entry entry;
    std::uint16_t iterations;
    std::uint8_t owner_len;
    std::uint8_t salt_len;
    bool used;
    std::uint8_t key[kMaxKeyBytes];  // owner ‖ salt
  };

  /// Index of the one slot the key may occupy.
  static std::size_t slot_index(std::span<const std::uint8_t> owner_wire,
                                std::span<const std::uint8_t> salt,
                                std::uint16_t iterations) noexcept;

  std::unique_ptr<Slot[]> slots_;
  std::size_t size_ = 0;
};

}  // namespace zh::crypto
