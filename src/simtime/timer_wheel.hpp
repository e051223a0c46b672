// Hierarchical timer wheel over virtual time.
//
// The async scan engine (scanner/async_engine.hpp) keeps thousands of
// per-query state machines in flight at once; each one needs a wake-up —
// a retransmission timeout, or the virtual instant its response completes.
// A sorted map of deadlines would cost O(log n) per arm/cancel with n in
// the thousands; the classic alternative (Varghese & Lauck, and the Linux
// kernel's timer subsystem) is a hierarchy of fixed-size wheels: O(1)
// arm/cancel, and expiry processing that touches only the slots virtual
// time actually crosses.
//
// Layout: kLevels wheels of kSlots slots each. Level 0 resolves single
// ticks (default 1 ms of virtual time); each higher level covers kSlots
// times the span of the one below. A timer lands in the lowest level whose
// span still contains its delay, and cascades down one level each time the
// wheel beneath it wraps — until it sits in a level-0 slot and fires.
//
// Determinism contract: expiries are delivered ordered by (deadline,
// arm sequence) — two timers armed for the same instant fire in the order
// they were armed, on every platform, regardless of how they were
// distributed across levels. Cancellation is lazy (an id set), so cancel()
// is O(1) and never perturbs slot order. Virtual time only moves through
// advance(), which the caller drives from its simtime::Clock; the wheel
// itself never reads a clock, so it inherits the simulation's replay
// guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "simtime/simtime.hpp"

namespace zh::simtime {

class TimerWheel {
 public:
  /// Opaque timer handle; also the deterministic same-deadline tiebreaker
  /// (ids increase in arm order).
  using TimerId = std::uint64_t;

  struct Expiry {
    TimerId id = 0;
    std::uint64_t payload = 0;
    /// The exact armed deadline (not rounded to tick granularity).
    Duration deadline;
  };

  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kLevels = 6;  // 64^6 ticks ≈ 2177 years @1ms

  explicit TimerWheel(Duration tick = Duration::from_ms(1));

  /// Arms a timer for the absolute virtual instant `deadline` (instants at
  /// or before the current wheel time fire on the next advance()). The
  /// payload is returned verbatim with the expiry.
  TimerId arm(Duration deadline, std::uint64_t payload);

  /// Cancels a live timer. False when the id already fired or was
  /// cancelled. O(1): the slot entry is dropped lazily when visited.
  bool cancel(TimerId id);

  /// Moves the wheel to `now` and returns every live timer with
  /// deadline <= now, ordered by (deadline, arm sequence). O(1) when
  /// nothing is armed, however far `now` lies ahead.
  std::vector<Expiry> advance(Duration now);

  /// Earliest live deadline, or nullopt when nothing is armed. Exact (the
  /// armed instant, not its tick).
  std::optional<Duration> next_deadline() const;

  std::size_t armed() const noexcept { return live_.size(); }
  bool empty() const noexcept { return live_.empty(); }
  Duration now() const noexcept { return now_; }

 private:
  struct Entry {
    TimerId id = 0;
    std::uint64_t payload = 0;
    std::int64_t deadline_ns = 0;
  };
  using Slot = std::vector<Entry>;

  std::int64_t tick_of(std::int64_t ns) const noexcept {
    // floor division for non-negative instants (virtual time starts at 0;
    // negative instants clamp to tick 0 so they still fire immediately).
    return ns <= 0 ? 0 : ns / tick_ns_;
  }

  /// Files an entry into the lowest level whose span covers its delay from
  /// the current tick. Called on arm and on cascade.
  void place(Entry entry);

  /// Re-files every entry of one higher-level slot after the level below
  /// wrapped past it.
  void cascade(std::size_t level, std::size_t slot);

  std::int64_t tick_ns_;
  std::int64_t current_tick_ = 0;
  Duration now_;
  TimerId next_id_ = 1;
  /// Live timers: id → exact deadline. Cancel erases here; slot entries of
  /// dead ids are skipped (and dropped) when their slot is visited.
  std::unordered_map<TimerId, std::int64_t> live_;
  std::vector<std::vector<Slot>> levels_;  // [level][slot]
};

}  // namespace zh::simtime
