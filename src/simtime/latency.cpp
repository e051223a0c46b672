#include "simtime/latency.hpp"

namespace zh::simtime {
namespace {

/// Stable 64-bit digest of the link's *server* endpoint. Deliberately not
/// keyed on the client: sharded campaigns give every worker a distinct
/// source address (scanner::shard_source), and folding it in would make
/// jitter draws — and therefore latency ECDFs — depend on the worker count.
/// The loss model makes the same choice (no link component at all).
std::uint64_t link_key(const simnet::IpAddress& to) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  h = (h ^ (to.is_v6() ? 0x6f : 0x34)) * 1099511628211ull;
  for (const std::uint8_t b : to.raw()) h = (h ^ b) * 1099511628211ull;
  return h;
}

}  // namespace

Duration LatencyModel::sample(const simnet::IpAddress& /*from*/,
                              const simnet::IpAddress& to, std::uint64_t flow,
                              std::uint64_t seq) const {
  if (jitter_.nanos() <= 0) return base_;
  // One splitmix draw keyed on (seed, destination, flow, seq): no sequential
  // RNG state, so the sample for a given transmission does not depend on
  // what other flows did before it — or on who sent it (see link_key).
  const std::uint64_t bits =
      mix64(seed_ + mix64(link_key(to) + mix64(flow + mix64(seq))));
  const auto spread = static_cast<std::int64_t>(
      unit_double(bits) * static_cast<double>(jitter_.nanos() + 1));
  return base_ + Duration::from_ns(spread);
}

}  // namespace zh::simtime
