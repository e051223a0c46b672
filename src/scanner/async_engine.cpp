#include "scanner/async_engine.hpp"

#include "simnet/exchange.hpp"

namespace zh::scanner {

void QueryTask::begin(const FlowQuery& query, simtime::Duration now,
                      std::uint16_t& next_id) {
  query_ = query;
  round_ = 0;
  logical_attempts_ = 0;
  logical_start_ = now;
  wire_ready_ = false;
  begin_exchange(next_id);
  state_ = State::kSend;
}

void QueryTask::begin_exchange(std::uint16_t& next_id) {
  const std::uint16_t id = next_id++;
  if (wire_ready_) {
    // Transient-SERVFAIL re-ask: same question, fresh id. Rewriting the
    // header in place keeps the bytes identical to a fresh make_query and
    // reuses all of the message's storage.
    wire_.header.id = id;
  } else {
    // First round: rebuild in place, field by field, so the question vector
    // and EDNS storage persisting in wire_ are reused across logical
    // queries instead of reallocated. Byte-identical to
    // make_query(id, qname, type) + cd.
    wire_.header = dns::Header{};
    wire_.header.id = id;
    wire_.header.rd = true;
    wire_.header.cd = query_.cd;
    wire_.questions.resize(1);
    dns::Question& q = wire_.questions.front();
    q.name = query_.qname;
    q.type = query_.type;
    q.klass = dns::RrClass::kIn;
    wire_.answers.clear();
    wire_.authorities.clear();
    wire_.additionals.clear();
    if (!wire_.edns) wire_.edns.emplace();
    wire_.edns->udp_payload_size = 1232;
    wire_.edns->version = 0;
    wire_.edns->do_bit = true;
    wire_.edns->options.clear();
    wire_ready_ = true;
  }
  attempt_ = 0;
  exchange_attempts_ = 0;
}

QueryTask::Step QueryTask::drive(simnet::Network& network,
                                 const simnet::IpAddress& source,
                                 const simnet::IpAddress& destination,
                                 const simtime::RetryPolicy& retry,
                                 std::uint16_t& next_id,
                                 std::uint64_t& queries,
                                 simtime::Duration now) {
  for (;;) {
    switch (state_) {
      case State::kSend: {
        ++exchange_attempts_;
        // A retry is a retransmission — count it, as simnet::exchange does.
        if (attempt_ > 0) network.tracer().count("client.retransmit");
        response_ = network.send(source, destination, wire_);
        // The delivery ran synchronously on this task's timeline; the clock
        // now reads the instant it finished.
        const simtime::Duration completed_at = network.clock().now();
        if (!response_) {
          if (!network.is_attached(destination)) {
            // Unreachable: retransmitting cannot help; the exchange settles
            // on the spot with one attempt spent and no timeout accounted.
            if (settle(retry, next_id, queries, /*timed_out=*/false, now))
              continue;
            return Step{false, now};
          }
          // No answer: park until this attempt's timeout, as
          // simnet::exchange advances the clock by attempt_timeout().
          // The timeout counts from completed_at, not the send instant: a
          // handler-level drop (the "stop answering" cohort) still runs the
          // delivery — RTT plus service time — before yielding nothing, and
          // simnet::exchange starts its wait from that advanced clock.
          // For a plain network loss completed_at == the send instant.
          state_ = State::kRetryBackoff;
          return Step{true, completed_at + retry.attempt_timeout(attempt_)};
        }
        // Delivered: the network already ran the exchange on this task's
        // timeline; park until the response's arrival instant.
        state_ = State::kAwaitResponse;
        return Step{true, completed_at};
      }
      case State::kAwaitResponse: {
        if (response_->header.tc && retry.tcp_on_truncation) {
          ++exchange_attempts_;
          // TCP is loss-exempt in the simulation (see simnet::exchange);
          // keep the truncated answer if it ever failed.
          if (auto tcp = network.send_tcp(source, destination, wire_))
            response_ = std::move(tcp);
          now = network.clock().now();
        }
        if (settle(retry, next_id, queries, /*timed_out=*/false, now))
          continue;
        return Step{false, now};
      }
      case State::kRetryBackoff: {
        ++attempt_;
        if (attempt_ < std::max(1u, retry.attempts)) {
          state_ = State::kSend;
          continue;
        }
        response_.reset();
        if (settle(retry, next_id, queries, /*timed_out=*/true, now))
          continue;
        return Step{false, now};
      }
      case State::kIdle:
      case State::kDone:
        return Step{false, now};
    }
  }
}

bool QueryTask::settle(const simtime::RetryPolicy& retry,
                       std::uint16_t& next_id, std::uint64_t& queries,
                       bool timed_out, simtime::Duration now) {
  queries += exchange_attempts_;
  logical_attempts_ += exchange_attempts_;
  // Transient SERVFAILs (RFC 8914 EDE 22/23) re-ask with a fresh id, up to
  // the retry budget in rounds; each round is a full exchange.
  const unsigned rounds = std::max(1u, retry.attempts);
  if (response_ && simnet::transient_servfail(*response_) &&
      round_ + 1 < rounds) {
    ++round_;
    begin_exchange(next_id);
    state_ = State::kSend;
    return true;
  }
  outcome_ = FlowOutcome{};
  outcome_.response = std::move(response_);
  response_.reset();
  outcome_.timed_out = timed_out;
  outcome_.attempts = logical_attempts_;
  outcome_.latency = now - logical_start_;
  state_ = State::kDone;
  return false;
}

void apply_totals(DomainScanResult& result, const TaskTotals& totals) {
  result.elapsed = totals.elapsed;
  result.timeouts = static_cast<unsigned>(totals.timeouts);
}

void apply_totals(ResolverProbeResult& result, const TaskTotals& totals) {
  result.elapsed = totals.elapsed;
  result.timeouts = totals.timeouts;
  result.queue_wait = simtime::Duration::from_ns(
      static_cast<std::int64_t>(totals.queue_wait_ns));
  result.queue_drops = totals.queue_drops;
}

}  // namespace zh::scanner
