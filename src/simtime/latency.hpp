// Seeded per-link latency model: base RTT + uniform jitter. Samples are a
// pure function of (seed, destination, flow, sequence) — one splitmix draw
// (simtime::mix64) — so identical configurations
// replay bit-identically and, because flow/sequence are item-local rather
// than scan-order-local (and the client address is deliberately not part of
// the key), samples are invariant under campaign sharding.
#pragma once

#include <cstdint>

#include "simnet/address.hpp"
#include "simtime/simtime.hpp"

namespace zh::simtime {

class LatencyModel {
 public:
  /// Inactive: every sample is zero (virtual time stands still).
  LatencyModel() = default;

  LatencyModel(Duration base_rtt, Duration jitter, std::uint64_t seed)
      : base_(base_rtt), jitter_(jitter), seed_(seed) {}

  bool active() const noexcept {
    return base_.nanos() > 0 || jitter_.nanos() > 0;
  }

  /// RTT for the `seq`-th transmission of `flow` towards `to`. `from` is
  /// accepted for call-site symmetry but never keys the draw: a worker's
  /// private source address must not change the sample.
  Duration sample(const simnet::IpAddress& from, const simnet::IpAddress& to,
                  std::uint64_t flow, std::uint64_t seq) const;

 private:
  Duration base_;
  Duration jitter_;
  std::uint64_t seed_ = 0;
};

}  // namespace zh::simtime
