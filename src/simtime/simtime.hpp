// Deterministic virtual time for the simulated Internet.
//
// The paper's measurement pipeline is time-shaped end to end: zdns enforces
// per-query timeouts with retransmission, §5.2 observes resolvers that stop
// answering (a client-side *timeout*, not an RCODE) above their iteration
// limit, and CVE-2023-50868's hash cost reaches clients as latency. This
// layer supplies the primitives: a discrete-event clock owned by each
// simnet::Network, a Duration value type, a service-time model converting
// CostMeter SHA-1 block deltas into processing delay, and the zdns-style
// RetryPolicy (attempts x exponential per-attempt timeouts, UDP→TCP on
// truncation).
//
// Determinism contract: virtual time never reads wall clocks or shared RNG
// state. The clock advances only on network deliveries (RTT sample +
// service time) and on client-side timeout waits, and every latency sample
// is a pure function of (seed, link, flow, sequence) — see latency.hpp —
// so a fixed configuration replays bit-identically.
#pragma once

#include <cstdint>
#include <string_view>

namespace zh::simtime {

/// splitmix64 output function — the same mixer the workload generator uses,
/// so every derived stream in the system shares one idiom.
inline constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from 64 mixed bits (53-bit mantissa fill).
inline constexpr double unit_double(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// FNV-1a over a string — the flow-key digest campaigns use to label
/// traffic by item identity (apex, probe token) instead of scan order.
/// Process-independent, unlike std::hash.
inline constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

/// A span of virtual time. Signed nanoseconds in 64 bits (~292 years),
/// integer-exact so merged aggregates cannot drift.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration from_ns(std::int64_t ns) noexcept {
    Duration d;
    d.ns_ = ns;
    return d;
  }
  static constexpr Duration from_us(std::int64_t us) noexcept {
    return from_ns(us * 1000);
  }
  static constexpr Duration from_ms(std::int64_t ms) noexcept {
    return from_ns(ms * 1000000);
  }
  static constexpr Duration from_seconds(std::int64_t s) noexcept {
    return from_ns(s * 1000000000);
  }

  constexpr std::int64_t nanos() const noexcept { return ns_; }
  constexpr std::int64_t micros() const noexcept { return ns_ / 1000; }
  constexpr std::int64_t millis() const noexcept { return ns_ / 1000000; }
  constexpr bool zero() const noexcept { return ns_ == 0; }

  constexpr Duration operator+(Duration other) const noexcept {
    return from_ns(ns_ + other.ns_);
  }
  constexpr Duration operator-(Duration other) const noexcept {
    return from_ns(ns_ - other.ns_);
  }
  constexpr Duration operator*(std::int64_t factor) const noexcept {
    return from_ns(ns_ * factor);
  }
  constexpr Duration& operator+=(Duration other) noexcept {
    ns_ += other.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const noexcept = default;

 private:
  std::int64_t ns_ = 0;
};

/// The discrete-event clock. One per simnet::Network (same threading
/// contract): time only moves when something explicitly advances it.
class Clock {
 public:
  constexpr Duration now() const noexcept { return now_; }
  constexpr void advance(Duration by) noexcept { now_ += by; }
  constexpr void reset() noexcept { now_ = Duration{}; }

  /// Moves the clock to an absolute instant — including backwards. Only
  /// for drivers that multiplex several logical client timelines over one
  /// network (simnet::concurrent_exchange rewinds to the batch epoch
  /// between clients); everything else should advance().
  constexpr void set(Duration to) noexcept { now_ = to; }

 private:
  Duration now_;
};

/// Converts a receiving handler's CostMeter SHA-1 block delta into virtual
/// processing delay, so a 500-iteration NSEC3 proof is visibly *slower*,
/// not just costlier. Zero per-block cost (the default) disables the model.
struct ServiceModel {
  Duration per_sha1_block;

  constexpr bool active() const noexcept { return per_sha1_block.nanos() > 0; }
  constexpr Duration cost(std::uint64_t sha1_blocks) const noexcept {
    if (!active()) return {};
    return Duration::from_ns(per_sha1_block.nanos() *
                             static_cast<std::int64_t>(sha1_blocks));
  }
};

/// zdns-style client retransmission policy: N attempts with exponentially
/// backed-off per-attempt timeouts, falling back to TCP when a UDP answer
/// comes back truncated. The defaults mirror zdns (3 attempts, 2 s, x2).
struct RetryPolicy {
  /// Total wire attempts over UDP (>= 1; 0 is treated as 1).
  unsigned attempts = 3;
  /// First attempt's timeout; attempt k waits timeout * multiplier^k.
  Duration timeout = Duration::from_ms(2000);
  unsigned backoff_multiplier = 2;
  /// Backoff ceiling, so long retry ladders stay bounded.
  Duration max_timeout = Duration::from_seconds(16);
  /// Retry a truncated UDP response over TCP (RFC 7766).
  bool tcp_on_truncation = true;

  constexpr Duration attempt_timeout(unsigned attempt) const noexcept {
    Duration t = timeout;
    for (unsigned i = 0; i < attempt; ++i) {
      t = Duration::from_ns(t.nanos() *
                            static_cast<std::int64_t>(backoff_multiplier));
      if (t >= max_timeout) return max_timeout;
    }
    return t < max_timeout ? t : max_timeout;
  }
};

}  // namespace zh::simtime
