#include "scanner/resolver_prober.hpp"

#include "scanner/async_engine.hpp"

namespace zh::scanner {

ResolverProber::ResolverProber(simnet::Network& network,
                               simnet::IpAddress source,
                               std::vector<testbed::ProbeZone> specs,
                               simtime::RetryPolicy retry)
    : network_(network),
      source_(source),
      specs_(std::move(specs)),
      retry_(retry) {}

ResolverProbeResult ResolverProber::probe(const simnet::IpAddress& resolver,
                                          const std::string& token) {
  // Flow-key the probe on its (unique) token, so this resolver's loss and
  // jitter draws are independent of the rest of the population sweep.
  return run_one(network_, source_, retry_,
                 AsyncItem<ProbeFlow>{.flow_key = simtime::fnv1a(token),
                                      .destination = resolver,
                                      .flow = ProbeFlow(&specs_, token)},
                 queries_);
}

}  // namespace zh::scanner
