#include "simtime/timer_wheel.hpp"

#include <algorithm>

namespace zh::simtime {
namespace {

/// Ticks one level spans: 64^level.
constexpr std::int64_t level_span(std::size_t level) noexcept {
  std::int64_t span = 1;
  for (std::size_t i = 0; i < level; ++i) span *= TimerWheel::kSlots;
  return span;
}

}  // namespace

TimerWheel::TimerWheel(Duration tick)
    : tick_ns_(tick.nanos() > 0 ? tick.nanos() : 1) {
  levels_.resize(kLevels);
  for (auto& level : levels_) level.resize(kSlots);
}

void TimerWheel::place(Entry entry) {
  // Already-due deadlines clamp to the current tick, so they land in the
  // slot the very next advance() visits instead of a slot the wheel
  // already passed (which would not come around again for a full lap).
  const std::int64_t deadline_tick =
      std::max(tick_of(entry.deadline_ns), current_tick_);
  const std::int64_t delta = deadline_tick - current_tick_;
  std::size_t level = 0;
  std::int64_t span = 1;
  while (level + 1 < kLevels && delta >= span * static_cast<std::int64_t>(
                                            kSlots)) {
    span *= static_cast<std::int64_t>(kSlots);
    ++level;
  }
  const std::size_t slot =
      static_cast<std::size_t>((deadline_tick / span) %
                               static_cast<std::int64_t>(kSlots));
  levels_[level][slot].push_back(entry);
}

TimerWheel::TimerId TimerWheel::arm(Duration deadline, std::uint64_t payload) {
  const TimerId id = next_id_++;
  Entry entry;
  entry.id = id;
  entry.payload = payload;
  entry.deadline_ns = deadline.nanos();
  live_.emplace(id, entry.deadline_ns);
  place(entry);
  return id;
}

bool TimerWheel::cancel(TimerId id) { return live_.erase(id) > 0; }

void TimerWheel::cascade(std::size_t level, std::size_t slot) {
  Slot entries = std::move(levels_[level][slot]);
  levels_[level][slot].clear();
  for (Entry& entry : entries) {
    if (live_.count(entry.id) == 0) continue;  // lazily dropped cancel
    place(entry);
  }
}

std::vector<TimerWheel::Expiry> TimerWheel::advance(Duration now) {
  std::vector<Expiry> fired;
  const std::int64_t now_ns = now.nanos();
  if (now_ns > now_.nanos()) now_ = now;
  const std::int64_t target_tick = tick_of(now_.nanos());
  if (live_.empty()) {
    // Nothing armed, so nothing can fire or cascade: jump straight to the
    // target instead of walking every empty tick up to it. Slots can only
    // hold lazily cancelled entries now, whose windows the jump skips.
    if (current_tick_ < target_tick) {
      for (auto& level : levels_)
        for (Slot& slot : level) slot.clear();
      current_tick_ = target_tick;
    }
    return fired;
  }

  const auto drain_slot = [&](Slot& slot_entries, bool partial) {
    if (slot_entries.empty()) return;
    Slot keep;
    for (Entry& entry : slot_entries) {
      const auto it = live_.find(entry.id);
      if (it == live_.end()) continue;  // cancelled: drop lazily
      if (!partial || entry.deadline_ns <= now_.nanos()) {
        fired.push_back(Expiry{entry.id, entry.payload,
                               Duration::from_ns(entry.deadline_ns)});
        live_.erase(it);
      } else {
        keep.push_back(entry);
      }
    }
    slot_entries = std::move(keep);
  };

  while (current_tick_ < target_tick) {
    // Fire the departing tick's level-0 slot completely: every live entry
    // there has deadline within this tick, which now lies behind `now`.
    drain_slot(
        levels_[0][static_cast<std::size_t>(
            current_tick_ % static_cast<std::int64_t>(kSlots))],
        /*partial=*/false);
    ++current_tick_;
    // On wheel wrap, pull the next higher-level slot down one level — the
    // classic cascade. A wrap at level L coincides with wraps at every
    // level below it, so walk upward while the modulus stays zero.
    std::int64_t span = static_cast<std::int64_t>(kSlots);
    for (std::size_t level = 1;
         level < kLevels && current_tick_ % span == 0; ++level) {
      const std::size_t slot = static_cast<std::size_t>(
          (current_tick_ / span) % static_cast<std::int64_t>(kSlots));
      cascade(level, slot);
      span *= static_cast<std::int64_t>(kSlots);
    }
  }
  // The tick containing `now` itself: fire only what is already due.
  drain_slot(levels_[0][static_cast<std::size_t>(
                 current_tick_ % static_cast<std::int64_t>(kSlots))],
             /*partial=*/true);
  // Entries armed in the past (deadline <= wheel time at arm) may sit in
  // higher levels only if armed before a big jump; the loop above cascaded
  // every crossed window, so level 0 is authoritative here.

  std::sort(fired.begin(), fired.end(), [](const Expiry& a, const Expiry& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.id < b.id;
  });
  return fired;
}

std::optional<Duration> TimerWheel::next_deadline() const {
  if (live_.empty()) return std::nullopt;
  std::optional<std::int64_t> best;
  for (std::size_t level = 0; level < kLevels; ++level) {
    const std::int64_t span = level_span(level);
    const std::int64_t pos = current_tick_ / span;
    // Scan this level's slots in time order starting at the current
    // position; the first slot holding a live entry bounds this level's
    // candidate (later slots of the same level are strictly later windows).
    for (std::size_t step = 0; step < kSlots; ++step) {
      const std::size_t slot = static_cast<std::size_t>(
          (pos + static_cast<std::int64_t>(step)) %
          static_cast<std::int64_t>(kSlots));
      const Slot& entries = levels_[level][slot];
      std::optional<std::int64_t> slot_min;
      for (const Entry& entry : entries) {
        if (live_.count(entry.id) == 0) continue;
        if (!slot_min || entry.deadline_ns < *slot_min)
          slot_min = entry.deadline_ns;
      }
      if (slot_min) {
        if (!best || *slot_min < *best) best = *slot_min;
        break;  // this level cannot do better in a later window
      }
    }
  }
  if (!best) return std::nullopt;
  return Duration::from_ns(*best);
}

}  // namespace zh::simtime
