// Earliest-deadline-first wake-up queue over virtual time.
//
// The async scan engine (scanner/async_engine.hpp) parks every in-flight
// task on exactly one wake-up and only ever asks which one comes next. A
// binary min-heap answers that in O(log n), and n is at most the engine's
// window (--max-inflight).
//
// Determinism contract: entries pop ordered by (deadline, push sequence) —
// two wake-ups for the same instant pop in the order they were pushed, on
// every platform. The queue never reads a clock, so it inherits the
// simulation's replay guarantees.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "simtime/simtime.hpp"

namespace zh::simtime {

class TimerQueue {
 public:
  struct Entry {
    Duration deadline;
    /// Push order; the same-deadline tiebreaker.
    std::uint64_t seq = 0;
    std::uint64_t payload = 0;
  };

  void push(Duration deadline, std::uint64_t payload) {
    heap_.push(Entry{deadline, next_seq_++, payload});
  }
  /// The earliest entry; the queue must not be empty.
  const Entry& top() const { return heap_.top(); }
  void pop() { heap_.pop(); }
  bool empty() const noexcept { return heap_.empty(); }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace zh::simtime
