#include "zone/chain_memo.hpp"

#include <algorithm>
#include <atomic>

#include "crypto/nsec3_memo.hpp"

namespace zh::zone {
namespace {

/// Process-wide default-capacity state. `pinned` blocks reserve_default_for
/// once the user expressed an explicit choice (env var or setter).
struct DefaultState {
  std::atomic<std::size_t> capacity{Nsec3ChainMemo::kDefaultCapacity};
  std::atomic<bool> pinned{false};

  DefaultState() {
    if (const auto env = crypto::chain_memo_env()) {
      capacity.store(*env, std::memory_order_relaxed);
      pinned.store(true, std::memory_order_relaxed);
    }
  }
};

DefaultState& default_state() {
  static DefaultState state;
  return state;
}

}  // namespace

Nsec3ChainMemo& Nsec3ChainMemo::instance() {
  thread_local Nsec3ChainMemo memo = [] {
    Nsec3ChainMemo m;
    m.set_capacity(default_capacity());
    return m;
  }();
  return memo;
}

std::size_t Nsec3ChainMemo::default_capacity() {
  return default_state().capacity.load(std::memory_order_relaxed);
}

void Nsec3ChainMemo::set_default_capacity(std::size_t capacity) {
  default_state().capacity.store(capacity, std::memory_order_relaxed);
  default_state().pinned.store(true, std::memory_order_relaxed);
  crypto::Nsec3DigestMemo::set_enabled(capacity > 0);
  instance().set_capacity(capacity);
}

void Nsec3ChainMemo::reserve_default_for(std::size_t zones) {
  DefaultState& state = default_state();
  if (state.pinned.load(std::memory_order_relaxed)) return;
  const std::size_t want = std::min(zones, kMaxAutoCapacity);
  std::size_t current = state.capacity.load(std::memory_order_relaxed);
  while (current < want &&
         !state.capacity.compare_exchange_weak(current, want,
                                               std::memory_order_relaxed)) {
  }
  if (instance().capacity() < want && instance().capacity() > 0)
    instance().set_capacity(want);
}

void Nsec3ChainMemo::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void Nsec3ChainMemo::clear() {
  map_.clear();
  lru_.clear();
  crypto::Nsec3DigestMemo::instance().clear();
}

const Nsec3ChainMemo::CachedChain* Nsec3ChainMemo::lookup(
    const std::string& key) {
  if (!enabled()) return nullptr;
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  ++stats_.hits;
  return &it->second.chain;
}

void Nsec3ChainMemo::insert(std::string key,
                            std::vector<Nsec3ChainEntry> entries,
                            ChainCost cost) {
  if (!enabled()) return;
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Same key re-inserted (capacity was toggled mid-run): refresh in place.
    it->second.chain = CachedChain{std::move(entries), cost};
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  map_.emplace(std::move(key),
               Slot{CachedChain{std::move(entries), cost}, lru_.begin()});
  ++stats_.insertions;
  if (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace zh::zone
