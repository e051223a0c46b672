// ZDNS-class async scan engine: per-query state machines over a simtime
// timer wheel. It drives every scan and probe; a single one is a one-item run.
//
// A serial loop interleaves nothing — each scan's waits (lost-packet
// timeouts, RTTs under a latency model) serialize behind every other
// scan's. This engine multiplexes thousands of resolutions over ONE worker
// thread: each item is a resumable task whose logical queries run as an
// explicit state machine (send → await-response → retry/backoff → validate
// → done/timeout); whenever a task must wait, it parks on the hierarchical
// timer wheel (simtime/timer_wheel.hpp) and the engine resumes whichever
// task's deadline comes first.
//
// Determinism, with the window size and worker count unobservable, rests
// on three properties the simulation already guarantees:
//  * Per-task local timelines. The virtual clock is set() to the task's own
//    time at every resume (the multiplexing pattern Clock::set documents and
//    simnet::concurrent_exchange established), so a task's latencies are
//    what they would have been had it run alone.
//  * Flow-keyed transport. Loss, jitter and service draws are pure functions
//    of (seed, link, flow key, per-flow sequence); Network::FlowState
//    snapshots the sequence cursor so a resumed task continues its own draw
//    stream exactly where it left off, regardless of what other tasks sent
//    in between.
//  * Delta-based accounting. Queue counters and tracer stage totals are
//    snapshotted around each resume and the deltas accrued to the task, so
//    per-item aggregates equal the item's own whole-run deltas.
// The campaign layers fold each item as it settles: every aggregate is a
// commutative integer count, so the settle order leaves no trace.
// tests/test_async_engine.cpp pins all of this to the canonical byte codec.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "scanner/scan_flow.hpp"
#include "simnet/network.hpp"
#include "simtime/simtime.hpp"
#include "simtime/timer_wheel.hpp"
#include "trace/trace.hpp"

namespace zh::scanner {

struct AsyncOptions {
  /// Concurrent resolutions in flight (the ZDNS "goroutine count" analog).
  std::size_t max_inflight = 1024;
  /// Client retransmission policy (zdns defaults).
  simtime::RetryPolicy retry{};
  /// Timer-wheel tick granularity. Expiries fire at exact deadlines; the
  /// tick only bounds per-advance bucketing work.
  simtime::Duration wheel_tick = simtime::Duration::from_ms(1);
};

/// Per-item aggregates the engine accrues across resumes — the item's own
/// share of the clock, the wire and the shared counters.
struct TaskTotals {
  /// Task-local virtual time from admission to settlement.
  simtime::Duration elapsed;
  /// Wire attempts the item spent (TCP fallbacks and re-asks included).
  std::uint64_t queries = 0;
  /// Logical queries whose final exchange exhausted every retransmission.
  std::uint64_t timeouts = 0;
  /// Service-queue waiting accrued during this item's deliveries.
  std::uint64_t queue_wait_ns = 0;
  /// Deliveries shed by a saturated queue during this item.
  std::uint64_t queue_drops = 0;
  /// Tracer stage-time deltas accrued during this item's deliveries.
  trace::StageTotals stages{};
};

/// One logical query as a resumable state machine: retransmission with
/// exponential backoff, UDP→TCP fallback on truncation, and the
/// transient-SERVFAIL re-ask loop — simnet::exchange plus a re-ask round
/// loop, unrolled into park/resume form.
class QueryTask {
 public:
  enum class State : std::uint8_t {
    kIdle,           // no logical query in flight
    kSend,           // about to transmit the next wire attempt
    kAwaitResponse,  // delivered; parked until the response's arrival time
    kRetryBackoff,   // attempt lost; parked until its timeout expires
    kDone,           // settled; outcome ready for the flow
  };

  /// What drive() left behind: parked (resume at wake_at) or settled
  /// (wake_at is the settlement instant; take_outcome() is ready).
  struct Step {
    bool waiting = false;
    simtime::Duration wake_at;
  };

  /// Starts a logical query at `now`; consumes a wire id per round.
  void begin(const FlowQuery& query, simtime::Duration now,
             std::uint16_t& next_id);

  /// Runs the machine from `now` (the caller has already set the clock and
  /// resumed the task's network flow) until it parks or settles. `queries`
  /// advances by every wire attempt.
  Step drive(simnet::Network& network, const simnet::IpAddress& source,
             const simnet::IpAddress& destination,
             const simtime::RetryPolicy& retry, std::uint16_t& next_id,
             std::uint64_t& queries, simtime::Duration now);

  FlowOutcome take_outcome() {
    state_ = State::kIdle;
    return std::move(outcome_);
  }

 private:
  void begin_exchange(std::uint16_t& next_id);
  /// Books the finished exchange; starts a transient-SERVFAIL re-ask round
  /// (returns true) or settles the logical query (returns false).
  bool settle(const simtime::RetryPolicy& retry, std::uint16_t& next_id,
              std::uint64_t& queries, bool timed_out, simtime::Duration now);

  State state_ = State::kIdle;
  FlowQuery query_;
  dns::Message wire_;  // current round's message (TCP fallback resends it)
  bool wire_ready_ = false;  // wire_ matches query_; re-asks rewrite the id
  unsigned round_ = 0;
  unsigned attempt_ = 0;
  unsigned exchange_attempts_ = 0;
  unsigned logical_attempts_ = 0;
  simtime::Duration logical_start_;
  std::optional<dns::Message> response_;
  FlowOutcome outcome_;
};

/// One unit of campaign work for the engine.
template <typename Flow>
struct AsyncItem {
  /// Caller-side identity (e.g. domain index); opaque to the engine.
  std::size_t index = 0;
  /// Network flow key (item identity): keys the item's transport draws.
  std::uint64_t flow_key = 0;
  simnet::IpAddress destination;
  Flow flow;
};

/// Drives up to max_inflight flows concurrently over one network/thread.
/// Flow is a resumable flow (DomainScanFlow, ProbeFlow): pending()/feed().
template <typename Flow>
class AsyncEngine {
 public:
  using Item = AsyncItem<Flow>;
  using MakeItem = std::function<Item(std::size_t position)>;
  using OnComplete =
      std::function<void(std::size_t position, Flow& flow,
                         const TaskTotals& totals)>;

  AsyncEngine(simnet::Network& network, simnet::IpAddress source,
              AsyncOptions options)
      : network_(network),
        source_(std::move(source)),
        options_(options),
        wheel_(options.wheel_tick) {}

  /// Runs `count` items: `make` supplies item `position` when a window slot
  /// frees up; `on_complete` fires in (deterministic) completion order.
  /// Returns the makespan and leaves the clock at the last settlement.
  simtime::Duration run(std::size_t count, const MakeItem& make,
                        const OnComplete& on_complete) {
    const simtime::Duration epoch = network_.clock().now();
    wheel_ = simtime::TimerWheel(options_.wheel_tick);
    wheel_.advance(epoch);  // align with the clock: a jump, nothing is armed
    tasks_.clear();
    free_slots_.clear();
    next_position_ = 0;
    count_ = count;
    latest_ = epoch;
    if (count == 0) return simtime::Duration{};
    const std::size_t window = std::max<std::size_t>(1, options_.max_inflight);
    while (next_position_ < count && tasks_.size() < window)
      admit(make, epoch);
    // Every parked task holds exactly one armed timer and every admission
    // arms one, so the wheel runs dry exactly when all items settled.
    while (!wheel_.empty()) {
      const simtime::Duration deadline = *wheel_.next_deadline();
      for (const auto& expiry : wheel_.advance(deadline))
        resume(expiry.payload, expiry.deadline, make, on_complete);
    }
    network_.clock().set(latest_);
    return latest_ - epoch;
  }

  /// Wire attempts across all completed items.
  std::uint64_t queries_issued() const noexcept { return queries_; }

 private:
  struct Task {
    std::size_t slot = 0;
    std::size_t position = 0;
    simnet::IpAddress destination;
    Flow flow;
    simnet::FlowState net;
    QueryTask query;
    bool query_inflight = false;
    bool finished = false;
    simtime::Duration started;
    simtime::Duration finish_time;
    TaskTotals totals;
  };

  void admit(const MakeItem& make, simtime::Duration at) {
    Item item = make(next_position_);
    // Reuse a settled task's slot (and its Task allocation and query-message
    // buffers) when one is free: the task table stays O(window), not
    // O(items admitted). Slot reuse cannot reorder anything — wheel expiries
    // are ordered by (deadline, arm sequence) and the payload never
    // participates, and a slot is only freed after its last timer fired.
    std::size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = tasks_.size();
      tasks_.push_back(std::make_unique<Task>());
    }
    Task& task = *tasks_[slot];
    task.slot = slot;
    task.position = next_position_++;
    task.destination = item.destination;
    task.flow = std::move(item.flow);
    task.net = simnet::FlowState{item.flow_key, 0};
    task.query_inflight = false;
    task.finished = false;
    task.started = at;
    task.finish_time = simtime::Duration{};
    task.totals = TaskTotals{};
    // The first resume goes through the wheel too, so admissions interleave
    // deterministically with same-instant completions.
    wheel_.arm(at, slot);
  }

  void resume(std::uint64_t slot, simtime::Duration at, const MakeItem& make,
              const OnComplete& on_complete) {
    Task& task = *tasks_[static_cast<std::size_t>(slot)];
    // Rejoin this task's private timeline and transport-draw stream.
    network_.clock().set(at);
    network_.resume_flow(task.net);
    const simtime::QueueCounters queue_before = network_.queue_counters();
    const trace::StageTotals stages_before = network_.tracer().stages();
    step(task, at);
    const simtime::QueueCounters& queue_after = network_.queue_counters();
    task.totals.queue_wait_ns += queue_after.wait_ns - queue_before.wait_ns;
    task.totals.queue_drops += queue_after.dropped - queue_before.dropped;
    const trace::StageTotals delta =
        trace::stage_delta(network_.tracer().stages(), stages_before);
    for (std::size_t i = 0; i < delta.size(); ++i)
      task.totals.stages[i] += delta[i];
    task.net = network_.flow_state();
    if (!task.finished) return;
    task.totals.elapsed = task.finish_time - task.started;
    if (task.finish_time.nanos() > latest_.nanos())
      latest_ = task.finish_time;
    on_complete(task.position, task.flow, task.totals);
    queries_ += task.totals.queries;
    const simtime::Duration finish_time = task.finish_time;
    free_slots_.push_back(static_cast<std::size_t>(slot));
    // A settled task frees a window slot: admit the next item at this very
    // instant, so a window of one runs the items back to back.
    if (next_position_ < count_) admit(make, finish_time);
  }

  /// Runs the task inline from `at` until its current logical query parks
  /// on the wheel or the flow settles.
  void step(Task& task, simtime::Duration at) {
    simtime::Duration now = at;
    for (;;) {
      if (!task.query_inflight) {
        const FlowQuery* q = task.flow.pending();
        if (q == nullptr) {
          task.finished = true;
          task.finish_time = now;
          return;
        }
        task.query.begin(*q, now, next_id_);
        task.query_inflight = true;
      }
      const QueryTask::Step s =
          task.query.drive(network_, source_, task.destination,
                           options_.retry, next_id_, task.totals.queries, now);
      if (s.waiting) {
        wheel_.arm(s.wake_at, task.slot);
        return;
      }
      now = s.wake_at;  // the instant the logical query settled
      task.query_inflight = false;
      const FlowOutcome outcome = task.query.take_outcome();
      if (outcome.timed_out) ++task.totals.timeouts;
      task.flow.feed(outcome);
    }
  }

  simnet::Network& network_;
  simnet::IpAddress source_;
  AsyncOptions options_;
  simtime::TimerWheel wheel_;
  std::vector<std::unique_ptr<Task>> tasks_;  // slot-indexed, stable ids
  std::vector<std::size_t> free_slots_;       // settled slots ready for reuse
  std::size_t next_position_ = 0;
  std::size_t count_ = 0;
  simtime::Duration latest_;
  std::uint16_t next_id_ = 1;
  std::uint64_t queries_ = 0;
};

/// Copies an item's engine totals into its settled result: the timeline and
/// retry bookkeeping a flow leaves at zero. One helper per result type,
/// shared by one-item runs, the campaign and the sweep.
void apply_totals(DomainScanResult& result, const TaskTotals& totals);
void apply_totals(ResolverProbeResult& result, const TaskTotals& totals);

/// Runs one item to settlement on a fresh engine and returns its result with
/// the totals applied; adds the item's wire attempts to `queries`. This is
/// DomainScanner::scan and ResolverProber::probe.
template <typename Flow>
auto run_one(simnet::Network& network, const simnet::IpAddress& source,
             const simtime::RetryPolicy& retry, AsyncItem<Flow> item,
             std::uint64_t& queries) {
  AsyncEngine<Flow> engine(network, source,
                           {.max_inflight = 1, .retry = retry});
  decltype(item.flow.take_result()) result;
  engine.run(
      1, [&item](std::size_t) { return std::move(item); },
      [&result](std::size_t, Flow& flow, const TaskTotals& totals) {
        result = flow.take_result();
        apply_totals(result, totals);
      });
  queries += engine.queries_issued();
  return result;
}

}  // namespace zh::scanner
