// Shims the benchmark re-attaches on simnet::Network::attach around the
// public node handlers: RecursiveResolver::handle_or_drop and the hosting
// operators' AuthoritativeServer::handle.
//
// They are attached in traced repetitions only. The resolver shim opens a
// resolver.handle span around every request and accumulates the hash work
// done inside top-level requests — requests from the scanner, prober or
// frontend, not a resolver's own upstream queries.
#pragma once

#include <cstdint>
#include <vector>

#include "resolver/resolver.hpp"
#include "simnet/network.hpp"
#include "testbed/internet.hpp"

namespace perfbench {

/// What the resolver shims attached by one driving thread collect. Written
/// only on that thread.
struct ShimSink {
  /// End of the most recent top-level request (steady clock, ns).
  std::int64_t last_end_ns = 0;
  /// Hash work inside top-level requests (crypto::CostMeter).
  std::uint64_t sha1_blocks = 0;
  std::uint64_t sha1_physical_blocks = 0;
  std::uint64_t nsec3_hashes = 0;
  /// This thread's operator-new count at the end of the most recent
  /// top-level request.
  std::uint64_t allocs_at_last_end = 0;
  /// When set: counters of this resolver and its network,
  /// copied after every top-level request (the world they live in is gone
  /// once a parallel driver returns).
  const zh::resolver::RecursiveResolver* snapshot_resolver = nullptr;
  zh::resolver::ResolverStats resolver_stats;
  std::uint64_t deliveries = 0;
  std::uint64_t tcp_queries = 0;
  std::uint64_t truncations = 0;
  std::int64_t virtual_ns = 0;
};

/// Re-attaches `resolver`'s node through the span shim. The sink must
/// outlive the network's use of it.
void attach_resolver_shim(zh::simnet::Network& network,
                          zh::resolver::RecursiveResolver& resolver,
                          ShimSink& sink);

/// Re-attaches every hosting operator's server (both addresses) through a
/// server.handle span. Root, TLD and shared-host servers have no public
/// handle and stay inside the resolver spans.
void attach_server_shims(zh::testbed::Internet& internet);

}  // namespace perfbench
