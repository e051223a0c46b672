// simtime::TimerWheel: the deterministic scheduler under the async scan
// engine. Exercises the ordering contract (deadline, then arm sequence),
// lazy cancellation, cascading across wheel levels, and — the load-bearing
// one — a 10k-operation randomized oracle run against a sorted-multimap
// reference scheduler.
#include "simtime/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace zh::simtime {
namespace {

using Expiry = TimerWheel::Expiry;
using TimerId = TimerWheel::TimerId;

std::vector<std::uint64_t> payloads(const std::vector<Expiry>& fired) {
  std::vector<std::uint64_t> out;
  out.reserve(fired.size());
  for (const Expiry& e : fired) out.push_back(e.payload);
  return out;
}

TEST(TimerWheel, FiresAtExactDeadlinesInOrder) {
  TimerWheel wheel;
  wheel.arm(Duration::from_ms(30), 3);
  wheel.arm(Duration::from_ms(10), 1);
  wheel.arm(Duration::from_ms(20), 2);
  EXPECT_EQ(wheel.armed(), 3u);
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(wheel.next_deadline()->millis(), 10);

  const auto first = wheel.advance(Duration::from_ms(10));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].payload, 1u);
  EXPECT_EQ(first[0].deadline.millis(), 10);

  const auto rest = wheel.advance(Duration::from_ms(100));
  EXPECT_EQ(payloads(rest), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(wheel.empty());
  EXPECT_FALSE(wheel.next_deadline().has_value());
}

TEST(TimerWheel, SameDeadlineFiresInArmOrder) {
  TimerWheel wheel;
  // Arm in shuffled payload order; same deadline throughout — delivery
  // must follow arm order (the id), not payload or slot internals.
  const Duration deadline = Duration::from_ms(5);
  for (std::uint64_t payload : {7u, 3u, 9u, 1u, 4u})
    wheel.arm(deadline, payload);
  const auto fired = wheel.advance(Duration::from_ms(5));
  EXPECT_EQ(payloads(fired), (std::vector<std::uint64_t>{7, 3, 9, 1, 4}));
}

TEST(TimerWheel, SubTickDeadlinesFireExactlyNotByTick) {
  TimerWheel wheel(Duration::from_ms(1));
  wheel.arm(Duration::from_us(1500), 15);  // mid-tick
  wheel.arm(Duration::from_us(1200), 12);
  // Advancing to 1.3 ms must fire only the 1.2 ms timer even though both
  // share the 1 ms tick slot.
  const auto first = wheel.advance(Duration::from_us(1300));
  EXPECT_EQ(payloads(first), (std::vector<std::uint64_t>{12}));
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(wheel.next_deadline()->micros(), 1500);
  const auto second = wheel.advance(Duration::from_us(1500));
  EXPECT_EQ(payloads(second), (std::vector<std::uint64_t>{15}));
}

TEST(TimerWheel, CancelSuppressesExpiryAndIsIdempotent) {
  TimerWheel wheel;
  const TimerId keep = wheel.arm(Duration::from_ms(10), 1);
  const TimerId drop = wheel.arm(Duration::from_ms(10), 2);
  EXPECT_TRUE(wheel.cancel(drop));
  EXPECT_FALSE(wheel.cancel(drop));  // already cancelled
  EXPECT_EQ(wheel.armed(), 1u);
  const auto fired = wheel.advance(Duration::from_ms(20));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].id, keep);
  EXPECT_FALSE(wheel.cancel(keep));  // already fired
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel;
  wheel.advance(Duration::from_ms(500));
  wheel.arm(Duration::from_ms(100), 42);  // already overdue
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(wheel.next_deadline()->millis(), 100);
  const auto fired = wheel.advance(Duration::from_ms(500));
  EXPECT_EQ(payloads(fired), (std::vector<std::uint64_t>{42}));
}

TEST(TimerWheel, CascadesAcrossLevels) {
  TimerWheel wheel(Duration::from_ms(1));
  // Level 0 spans 64 ticks, level 1 spans 4096, level 2 spans 262144.
  // One timer per level, plus one far enough out to need level 3.
  wheel.arm(Duration::from_ms(40), 0);           // level 0
  wheel.arm(Duration::from_ms(1000), 1);         // level 1
  wheel.arm(Duration::from_ms(100000), 2);       // level 2
  wheel.arm(Duration::from_ms(10000000), 3);     // level 3
  EXPECT_EQ(wheel.armed(), 4u);

  EXPECT_EQ(payloads(wheel.advance(Duration::from_ms(40))),
            (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(wheel.next_deadline()->millis(), 1000);
  EXPECT_EQ(payloads(wheel.advance(Duration::from_ms(1000))),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(wheel.next_deadline()->millis(), 100000);
  // Jump straight across many cascade boundaries in one advance.
  EXPECT_EQ(payloads(wheel.advance(Duration::from_ms(20000000))),
            (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelledTimerSurvivesCascadeWithoutFiring) {
  TimerWheel wheel(Duration::from_ms(1));
  const TimerId id = wheel.arm(Duration::from_ms(5000), 1);  // level 1
  wheel.arm(Duration::from_ms(6000), 2);
  EXPECT_TRUE(wheel.cancel(id));
  // The cascade at the 4096-tick boundary must lazily drop the cancelled
  // entry instead of re-filing or firing it.
  const auto fired = wheel.advance(Duration::from_ms(7000));
  EXPECT_EQ(payloads(fired), (std::vector<std::uint64_t>{2}));
  EXPECT_TRUE(wheel.empty());
}

/// Reference scheduler: a sorted multimap keyed by (deadline, arm id) —
/// trivially correct ordering, O(log n) everything.
class ReferenceScheduler {
 public:
  TimerId arm(Duration deadline, std::uint64_t payload) {
    const TimerId id = next_id_++;
    timers_.emplace(std::make_pair(deadline.nanos(), id), payload);
    return id;
  }
  bool cancel(TimerId id) {
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->first.second == id) {
        timers_.erase(it);
        return true;
      }
    }
    return false;
  }
  std::vector<Expiry> advance(Duration now) {
    std::vector<Expiry> fired;
    auto it = timers_.begin();
    while (it != timers_.end() && it->first.first <= now.nanos()) {
      fired.push_back(Expiry{it->first.second, it->second,
                             Duration::from_ns(it->first.first)});
      it = timers_.erase(it);
    }
    return fired;
  }
  std::size_t armed() const { return timers_.size(); }

 private:
  TimerId next_id_ = 1;
  std::map<std::pair<std::int64_t, TimerId>, std::uint64_t> timers_;
};

/// 10k random arm/cancel/advance operations from `epoch`. With `leaps`, an
/// advance now and then moves past every armed deadline (all delays stay
/// under 272 s), and one that finds the wheel empty leaps hours.
void run_oracle(Duration epoch, bool leaps) {
  TimerWheel wheel(Duration::from_ms(1));
  ReferenceScheduler reference;
  // Deterministic splitmix64 stream — no platform-dependent RNG.
  std::uint64_t state = 0x5eed;
  const auto rng = [&state] { return mix64(state++); };

  Duration now = epoch;
  EXPECT_TRUE(wheel.advance(now).empty());
  std::vector<TimerId> live;  // both schedulers assign identical ids
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 55) {
      // Arm at a delay spanning every wheel level: sub-tick to ~272 s.
      const std::int64_t delay_ns = static_cast<std::int64_t>(
          rng() % (rng() % 2 ? 2'000'000ull : 272'000'000'000ull));
      const Duration deadline = now + Duration::from_ns(delay_ns);
      const std::uint64_t payload = rng();
      const TimerId a = wheel.arm(deadline, payload);
      const TimerId b = reference.arm(deadline, payload);
      ASSERT_EQ(a, b);
      live.push_back(a);
    } else if (roll < 75 && !live.empty()) {
      const std::size_t pick = rng() % live.size();
      const TimerId id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_EQ(wheel.cancel(id), reference.cancel(id)) << "op " << op;
    } else {
      now += Duration::from_ns(
          static_cast<std::int64_t>(rng() % 5'000'000'000ull));
      if (leaps && wheel.empty())
        now += Duration::from_seconds(
            3600 * static_cast<std::int64_t>(1 + rng() % 6));
      else if (leaps && rng() % 40 == 0)
        now += Duration::from_seconds(300);
      const auto fired = wheel.advance(now);
      const auto expected = reference.advance(now);
      ASSERT_EQ(fired.size(), expected.size()) << "op " << op;
      for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i].id, expected[i].id) << "op " << op << " #" << i;
        EXPECT_EQ(fired[i].payload, expected[i].payload);
        EXPECT_EQ(fired[i].deadline.nanos(), expected[i].deadline.nanos());
      }
      for (const Expiry& e : fired)
        live.erase(std::remove(live.begin(), live.end(), e.id), live.end());
    }
    ASSERT_EQ(wheel.armed(), reference.armed()) << "op " << op;
  }
  // Drain: everything still armed must fire, in identical order.
  now += Duration::from_seconds(600);
  const auto fired = wheel.advance(now);
  const auto expected = reference.advance(now);
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i].id, expected[i].id) << "#" << i;
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, OracleAgainstSortedMultimapUnder10kRandomOps) {
  run_oracle(Duration{}, /*leaps=*/false);
  // A wheel built long after time zero, at an instant off the tick grid,
  // whose clock leaps hours while nothing is armed.
  run_oracle(
      Duration::from_seconds(3 * 86400) + Duration::from_ns(123'456'789),
      /*leaps=*/true);
}

}  // namespace
}  // namespace zh::simtime
