#include "scanner/domain_scanner.hpp"

#include "scanner/async_engine.hpp"

namespace zh::scanner {

DomainScanner::DomainScanner(simnet::Network& network,
                             simnet::IpAddress source,
                             simnet::IpAddress resolver,
                             simtime::RetryPolicy retry)
    : network_(network),
      source_(source),
      resolver_(resolver),
      retry_(retry) {}

DomainScanResult DomainScanner::scan(const dns::Name& apex) {
  // Flow-key the scan on the apex, so this domain's loss/jitter draws do
  // not depend on how many queries earlier scans issued — the property
  // that keeps sharded campaigns identical for any worker count.
  return run_one(
      network_, source_, retry_,
      AsyncItem<DomainScanFlow>{
          .flow_key = simtime::fnv1a(apex.canonical().to_string()),
          .destination = resolver_,
          .flow = DomainScanFlow(apex, [this] { return probe_token_++; })},
      queries_);
}

}  // namespace zh::scanner
