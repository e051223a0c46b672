#include "shims.hpp"

#include <optional>

#include "alloc.hpp"
#include "common.hpp"
#include "crypto/cost_meter.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using zh::crypto::CostMeter;

/// Resolver shims entered and not yet left on this thread: a forwarder's
/// upstream query re-enters a shim at depth 1 and is not a client request.
thread_local int resolver_depth = 0;

struct DepthGuard {
  DepthGuard() { ++resolver_depth; }
  ~DepthGuard() { --resolver_depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
};

}  // namespace

void attach_resolver_shim(zh::simnet::Network& network,
                          zh::resolver::RecursiveResolver& resolver,
                          ShimSink& sink) {
  zh::simnet::Network* net = &network;
  zh::resolver::RecursiveResolver* target = &resolver;
  ShimSink* out = &sink;
  network.attach(
      resolver.address(),
      [net, target, out](const zh::dns::Message& query,
                         const zh::simnet::IpAddress& source)
          -> std::optional<zh::dns::Message> {
        const bool top_level = resolver_depth == 0;
        const DepthGuard depth;
        const std::uint64_t sha1 = CostMeter::sha1_blocks();
        const std::uint64_t physical = CostMeter::sha1_physical_blocks();
        const std::uint64_t hashes = CostMeter::nsec3_hashes();
        std::optional<zh::dns::Message> response;
        {
          const ScopedSpan span(SpanKind::kResolver);
          response = target->handle_or_drop(query, source);
        }
        if (!top_level) return response;
        out->last_end_ns = now_ns();
        out->sha1_blocks += CostMeter::sha1_blocks() - sha1;
        out->sha1_physical_blocks +=
            CostMeter::sha1_physical_blocks() - physical;
        out->nsec3_hashes += CostMeter::nsec3_hashes() - hashes;
        out->allocs_at_last_end = alloc::thread_count();
        if (out->snapshot_resolver != nullptr) {
          out->resolver_stats = out->snapshot_resolver->stats();
          out->deliveries = net->queries_sent();
          out->tcp_queries = net->tcp_queries();
          out->truncations = net->truncations();
          out->virtual_ns = net->clock().now().nanos();
        }
        return response;
      });
}

void attach_server_shims(zh::testbed::Internet& internet) {
  zh::simnet::Network& network = internet.network();
  for (std::size_t i = 0; i < internet.operator_count(); ++i) {
    const zh::testbed::OperatorHandle& op = internet.hosting_operator(i);
    const zh::server::AuthoritativeServer* server = op.server;
    const auto handler = [server](const zh::dns::Message& query,
                                  const zh::simnet::IpAddress& source) {
      const ScopedSpan span(SpanKind::kServer);
      return std::optional<zh::dns::Message>(server->handle(query, source));
    };
    network.attach(op.address_v4, handler);
    network.attach(op.address_v6, handler);
  }
}

}  // namespace perfbench
