#include "crypto/nsec3_memo.hpp"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace zh::crypto {
namespace {

/// ZH_CHAIN_MEMO, read once: the memo is on unless the value is 0.
bool memo_on_from_env() {
  const char* raw = std::getenv("ZH_CHAIN_MEMO");
  if (raw == nullptr) return true;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0' || raw[0] == '-') {
    std::fprintf(stderr,
                 "# ZH_CHAIN_MEMO='%s' is not a non-negative integer; "
                 "the NSEC3 digest memo stays on\n",
                 raw);
    return true;
  }
  return value != 0;
}

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> on{memo_on_from_env()};
  return on;
}

/// Folds `bytes` into `h` eight at a time by xor-multiply. Only the slot
/// index depends on it, never a match.
std::uint64_t mix(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * kMul;
  }
  if (i < bytes.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, bytes.size() - i);
    h = (h ^ word) * kMul;
  }
  return h;
}

}  // namespace

Nsec3DigestMemo& Nsec3DigestMemo::instance() {
  thread_local Nsec3DigestMemo memo;
  return memo;
}

bool Nsec3DigestMemo::enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void Nsec3DigestMemo::set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

bool Nsec3DigestMemo::covers(std::span<const std::uint8_t> owner_wire,
                             std::span<const std::uint8_t> salt) noexcept {
  return owner_wire.size() + salt.size() <= kMaxKeyBytes && enabled();
}

std::size_t Nsec3DigestMemo::slot_index(
    std::span<const std::uint8_t> owner_wire,
    std::span<const std::uint8_t> salt, std::uint16_t iterations) noexcept {
  constexpr int kIndexBits = std::countr_zero(kCapacity);
  static_assert(kCapacity == std::size_t{1} << kIndexBits,
                "kCapacity must be a power of two");
  const std::uint64_t lengths = (std::uint64_t{iterations} << 16) |
                                (owner_wire.size() << 8) | salt.size();
  // A multiply carries every input bit only upwards, so the top bits of
  // the last product depend on every byte: they pick the slot.
  return mix(mix(lengths, owner_wire), salt) >> (64 - kIndexBits);
}

const Nsec3DigestMemo::Entry* Nsec3DigestMemo::find(
    std::span<const std::uint8_t> owner_wire,
    std::span<const std::uint8_t> salt,
    std::uint16_t iterations) const noexcept {
  if (!slots_) return nullptr;
  const Slot& slot = slots_[slot_index(owner_wire, salt, iterations)];
  // An empty span's data() may be null; memcmp wants valid pointers.
  const bool match =
      slot.used && slot.iterations == iterations &&
      slot.owner_len == owner_wire.size() && slot.salt_len == salt.size() &&
      (owner_wire.empty() ||
       std::memcmp(slot.key, owner_wire.data(), owner_wire.size()) == 0) &&
      (salt.empty() || std::memcmp(slot.key + owner_wire.size(), salt.data(),
                                   salt.size()) == 0);
  return match ? &slot.entry : nullptr;
}

void Nsec3DigestMemo::insert(std::span<const std::uint8_t> owner_wire,
                             std::span<const std::uint8_t> salt,
                             std::uint16_t iterations, const Entry& entry) {
  if (!slots_) slots_ = std::make_unique<Slot[]>(kCapacity);
  Slot& slot = slots_[slot_index(owner_wire, salt, iterations)];
  if (!slot.used) ++size_;
  slot.entry = entry;
  slot.iterations = iterations;
  slot.owner_len = static_cast<std::uint8_t>(owner_wire.size());
  slot.salt_len = static_cast<std::uint8_t>(salt.size());
  slot.used = true;
  if (!owner_wire.empty())
    std::memcpy(slot.key, owner_wire.data(), owner_wire.size());
  if (!salt.empty())
    std::memcpy(slot.key + owner_wire.size(), salt.data(), salt.size());
}

void Nsec3DigestMemo::clear() noexcept {
  if (slots_)
    for (std::size_t i = 0; i < kCapacity; ++i) slots_[i].used = false;
  size_ = 0;
}

}  // namespace zh::crypto
