// simtime::TimerQueue: the wake-up heap under the async scan engine.
// Exercises the ordering contract (deadline, then push sequence) and — the
// load-bearing one — a 10k-operation randomized oracle run against a
// sorted-map reference scheduler, checking the earliest entry after every
// operation and the order of every pop.
#include "simtime/timer_queue.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

namespace zh::simtime {
namespace {

/// Pops every entry due at or before `now`, in pop order.
std::vector<TimerQueue::Entry> pop_until(TimerQueue& queue, Duration now) {
  std::vector<TimerQueue::Entry> popped;
  while (!queue.empty() && queue.top().deadline <= now) {
    popped.push_back(queue.top());
    queue.pop();
  }
  return popped;
}

std::vector<std::uint64_t> payloads(
    const std::vector<TimerQueue::Entry>& popped) {
  std::vector<std::uint64_t> out;
  out.reserve(popped.size());
  for (const TimerQueue::Entry& e : popped) out.push_back(e.payload);
  return out;
}

TEST(TimerQueue, FiresAtExactDeadlinesInOrder) {
  TimerQueue queue;
  queue.push(Duration::from_ms(30), 3);
  queue.push(Duration::from_ms(10), 1);
  queue.push(Duration::from_ms(20), 2);
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.top().deadline.millis(), 10);

  const auto first = pop_until(queue, Duration::from_ms(10));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].payload, 1u);
  EXPECT_EQ(first[0].deadline.millis(), 10);

  const auto rest = pop_until(queue, Duration::from_ms(100));
  EXPECT_EQ(payloads(rest), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(queue.empty());
}

TEST(TimerQueue, SameDeadlineFiresInArmOrder) {
  TimerQueue queue;
  // Push in shuffled payload order; same deadline throughout — pops must
  // follow push order, not payload or heap internals.
  const Duration deadline = Duration::from_ms(5);
  for (std::uint64_t payload : {7u, 3u, 9u, 1u, 4u})
    queue.push(deadline, payload);
  const auto fired = pop_until(queue, Duration::from_ms(5));
  EXPECT_EQ(payloads(fired), (std::vector<std::uint64_t>{7, 3, 9, 1, 4}));
}

/// Drives a TimerQueue and a reference scheduler — a sorted map keyed by
/// (deadline, push sequence), trivially correct — through the same pushes
/// and pops. After every operation the queue's top() must be the
/// reference's first entry, and every pop must follow the reference.
class Oracle {
 public:
  void push(Duration deadline, std::uint64_t payload) {
    queue_.push(deadline, payload);
    reference_.emplace(std::make_pair(deadline.nanos(), next_seq_++),
                       payload);
    expect_top_matches();
  }

  /// Pops every entry due at or before `now`.
  void pop_until(Duration now) {
    while (!reference_.empty() &&
           reference_.begin()->first.first <= now.nanos()) {
      expect_top_matches();
      if (queue_.empty()) return;
      queue_.pop();
      reference_.erase(reference_.begin());
    }
    expect_top_matches();
  }

  bool empty() const { return reference_.empty(); }

 private:
  void expect_top_matches() {
    ASSERT_EQ(queue_.empty(), reference_.empty());
    if (reference_.empty()) return;
    const auto& [key, payload] = *reference_.begin();
    EXPECT_EQ(queue_.top().deadline.nanos(), key.first);
    EXPECT_EQ(queue_.top().seq, key.second);
    EXPECT_EQ(queue_.top().payload, payload);
  }

  TimerQueue queue_;
  std::map<std::pair<std::int64_t, std::uint64_t>, std::uint64_t> reference_;
  std::uint64_t next_seq_ = 0;
};

/// 10k random push/pop operations from `epoch`. With `leaps`, a pop now and
/// then moves past every pending deadline (all delays stay under 272 s),
/// and one that finds the queue empty leaps hours.
void run_oracle(Duration epoch, bool leaps) {
  Oracle oracle;
  // Deterministic splitmix64 stream — no platform-dependent RNG.
  std::uint64_t state = 0x5eed;
  const auto rng = [&state] { return mix64(state++); };

  Duration now = epoch;
  for (int op = 0; op < 10000; ++op) {
    SCOPED_TRACE(op);
    if (rng() % 100 < 55) {
      // Delays from sub-millisecond to ~272 s.
      const std::int64_t delay_ns = static_cast<std::int64_t>(
          rng() % (rng() % 2 ? 2'000'000ull : 272'000'000'000ull));
      oracle.push(now + Duration::from_ns(delay_ns), rng());
    } else {
      now += Duration::from_ns(
          static_cast<std::int64_t>(rng() % 5'000'000'000ull));
      if (leaps && oracle.empty())
        now += Duration::from_seconds(
            3600 * static_cast<std::int64_t>(1 + rng() % 6));
      else if (leaps && rng() % 40 == 0)
        now += Duration::from_seconds(300);
      oracle.pop_until(now);
    }
  }
  // Drain: everything still pending must pop, in the reference's order.
  oracle.pop_until(now + Duration::from_seconds(600));
  EXPECT_TRUE(oracle.empty());
}

TEST(TimerQueue, OracleAgainstSortedMultimapUnder10kRandomOps) {
  run_oracle(Duration{}, /*leaps=*/false);
  // Deadlines long after time zero, off any millisecond grid, with leaps
  // of hours while nothing is pending.
  run_oracle(
      Duration::from_seconds(3 * 86400) + Duration::from_ns(123'456'789),
      /*leaps=*/true);
  // A hierarchical timer wheel (1 ms ticks, 64 slots a level) gets this
  // one wrong: at 10 ms, 4105 ms lands one lap ahead in the level-1 slot
  // the wheel scans first, before the slot holding 110 ms, so it reports
  // 4105 ms as the earliest deadline.
  Oracle wheel_trap;
  wheel_trap.pop_until(Duration::from_ms(10));
  wheel_trap.push(Duration::from_ms(110), 1);
  wheel_trap.push(Duration::from_ms(4105), 2);
  wheel_trap.pop_until(Duration::from_seconds(600));
  EXPECT_TRUE(wheel_trap.empty());
}

}  // namespace
}  // namespace zh::simtime
