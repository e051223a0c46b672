#include "scanner/campaign.hpp"

#include <algorithm>
#include <vector>

#include "scanner/async_engine.hpp"
#include "simnet/exchange.hpp"

namespace zh::scanner {
namespace {

/// Registered domain ("operator identity") of a name-server name: its last
/// two labels — the paper aggregates NS records by registered domain even
/// across public suffixes.
std::string operator_identity(const dns::Name& ns_name) {
  if (ns_name.label_count() < 2) return ns_name.to_string();
  return ns_name.ancestor_with_labels(2).canonical().to_string();
}

/// The single operator exclusively serving a domain, or empty.
std::string exclusive_operator(const std::vector<dns::Name>& ns_names) {
  std::string identity;
  for (const auto& ns : ns_names) {
    const std::string op = operator_identity(ns);
    if (identity.empty()) {
      identity = op;
    } else if (identity != op) {
      return {};
    }
  }
  return identity;
}

}  // namespace

DomainCampaign::DomainCampaign(testbed::Internet& internet,
                               const workload::EcosystemSpec& spec,
                               simnet::IpAddress scan_resolver,
                               simnet::IpAddress source,
                               simtime::RetryPolicy retry)
    : internet_(internet),
      spec_(spec),
      scan_resolver_(scan_resolver),
      source_(source),
      retry_(retry) {}

void DomainCampaign::run(std::size_t limit, std::size_t stride) {
  run_shard(0, 1, limit, stride);
}

void DomainCampaign::warm_tld_caches() {
  if (warmed_) return;
  warmed_ = true;
  simnet::Network& network = internet_.network();
  if (!network.time_models_active()) return;
  std::uint16_t id = 60000;
  for (const auto& tld : spec_.tlds()) {
    network.set_flow(simtime::fnv1a("warm." + tld.label));
    dns::Message query = dns::Message::make_query(
        id++, dns::Name::must_parse(tld.label), dns::RrType::kDnskey,
        /*dnssec_ok=*/true);
    query.header.cd = true;  // same cache partition the scanner uses
    (void)simnet::exchange(network, source_, scan_resolver_, query, retry_);
  }
  // Operator NS hosts too: customer delegations are glueless (the NS names
  // live under <operator>.net, out of bailiwick for the customer's TLD), so
  // the first same-operator domain a resolver sees pays a one-time
  // out-of-band NS address resolution that later domains reuse from the
  // zone cache. Which domain is "first" depends on the sharding — warming
  // the chain here makes every scan a warm-path scan instead.
  for (const auto& op : spec_.operators()) {
    network.set_flow(simtime::fnv1a("warm.op." + op.name));
    dns::Message query = dns::Message::make_query(
        id++, *dns::Name::must_parse(op.name + ".net").prepended("ns1"),
        dns::RrType::kA, /*dnssec_ok=*/true);
    query.header.cd = true;
    (void)simnet::exchange(network, source_, scan_resolver_, query, retry_);
  }
}

void DomainCampaign::run_shard(std::size_t shard, std::size_t shards,
                               std::size_t limit, std::size_t stride,
                               std::size_t max_inflight) {
  warm_tld_caches();
  // Snapshot the RFC 8198/9520 metrics *after* warming: the warm queries
  // are duplicated per shard, so only scan-attributable hits — which are
  // item-local and therefore shard-sum-invariant — enter the stats.
  trace::Metrics& metrics = internet_.network().tracer().metrics();
  const std::uint64_t synth_before = metrics.value("resolver.neg_synth_hit");
  const std::uint64_t failure_before =
      metrics.value("resolver.failure_cache_hit");
  const std::size_t count = std::min(limit, spec_.domain_count());
  std::vector<std::size_t> indexes;
  for (std::size_t position = shard;; position += shards) {
    const std::size_t index = position * stride;
    if (index >= count || index / stride != position) break;  // overflow
    indexes.push_back(index);
  }

  AsyncEngine<DomainScanFlow> engine(
      internet_.network(), source_,
      {.max_inflight = max_inflight, .retry = retry_});
  const std::size_t first_record = records_.size();
  engine.run(
      indexes.size(),
      [&](std::size_t position) {
        const workload::DomainProfile profile =
            spec_.domain(indexes[position]);
        return AsyncItem<DomainScanFlow>{
            .index = indexes[position],
            .flow_key = simtime::fnv1a(profile.apex.canonical().to_string()),
            .destination = scan_resolver_,
            .flow = DomainScanFlow(profile.apex,
                                   [this] { return probe_token_++; })};
      },
      [&](std::size_t position, DomainScanFlow& flow,
          const TaskTotals& totals) {
        DomainScanResult result = flow.take_result();
        apply_totals(result, totals);
        accumulate_scan(indexes[position], result, totals);
      });
  queries_ += engine.queries_issued();
  // Scans settle out of order; restore domain-index order once.
  std::sort(records_.begin() + static_cast<std::ptrdiff_t>(first_record),
            records_.end(),
            [](const CompactDomainRecord& a, const CompactDomainRecord& b) {
              return a.index < b.index;
            });
  stats_.neg_synth_hits +=
      metrics.value("resolver.neg_synth_hit") - synth_before;
  stats_.failure_cache_hits +=
      metrics.value("resolver.failure_cache_hit") - failure_before;
}

void DomainCampaign::accumulate_scan(std::size_t index,
                                     const DomainScanResult& result,
                                     const TaskTotals& totals) {
  ++stats_.scanned;
  stats_.scan_latency_us.add(result.elapsed.micros());
  stats_.timeouts += result.timeouts;
  stats_.queue_delay_us.add(
      static_cast<std::int64_t>(totals.queue_wait_ns / 1000));
  stats_.queue_drops += totals.queue_drops;
  stats_.add_stages(totals.stages);
  CompactDomainRecord record;
  record.index = static_cast<std::uint32_t>(index);
  record.classification = result.classification;

  if (result.dnskey) ++stats_.dnssec;
  if (result.classification == DomainScanResult::Class::kExcluded)
    ++stats_.excluded;

  if (result.classification == DomainScanResult::Class::kNsec3Enabled) {
    ++stats_.nsec3;
    const auto& nsec3 = *result.nsec3;
    record.iterations = nsec3.iterations;
    record.salt_len = static_cast<std::uint8_t>(
        std::min<std::size_t>(nsec3.salt.size(), 255));
    record.opt_out = nsec3.opt_out;

    stats_.iterations.add(nsec3.iterations);
    stats_.salt_len.add(static_cast<std::int64_t>(nsec3.salt.size()));
    if (nsec3.iterations == 0) ++stats_.zero_iterations;
    if (nsec3.salt.empty()) ++stats_.no_salt;
    if (nsec3.iterations == 0 && nsec3.salt.empty()) ++stats_.fully_compliant;
    if (nsec3.opt_out) ++stats_.opt_out;
    if (nsec3.iterations > 150) ++stats_.over_150_iterations;
    if (nsec3.iterations == 500) ++stats_.at_500_iterations;
    if (nsec3.salt.size() > 10) ++stats_.salt_over_10;
    if (nsec3.salt.size() > 45) ++stats_.salt_over_45;
    if (nsec3.salt.size() == 160) ++stats_.salt_at_160;

    const std::string op = exclusive_operator(result.ns_names);
    if (!op.empty()) {
      stats_.operators.add(op);
      stats_.operator_params[op].add(std::to_string(nsec3.iterations) + "/" +
                                     std::to_string(nsec3.salt.size()));
    }
  }
  records_.push_back(record);
}

void DomainCampaignStats::merge(const DomainCampaignStats& other) {
  scanned += other.scanned;
  dnssec += other.dnssec;
  nsec3 += other.nsec3;
  excluded += other.excluded;
  iterations.merge(other.iterations);
  salt_len.merge(other.salt_len);
  zero_iterations += other.zero_iterations;
  no_salt += other.no_salt;
  fully_compliant += other.fully_compliant;
  opt_out += other.opt_out;
  over_150_iterations += other.over_150_iterations;
  at_500_iterations += other.at_500_iterations;
  salt_over_10 += other.salt_over_10;
  salt_over_45 += other.salt_over_45;
  salt_at_160 += other.salt_at_160;
  operators.merge(other.operators);
  for (const auto& [op, params] : other.operator_params)
    operator_params[op].merge(params);
  scan_latency_us.merge(other.scan_latency_us);
  timeouts += other.timeouts;
  queue_delay_us.merge(other.queue_delay_us);
  queue_drops += other.queue_drops;
  stage_resolve_us.merge(other.stage_resolve_us);
  stage_recurse_us.merge(other.stage_recurse_us);
  stage_validate_us.merge(other.stage_validate_us);
  stage_queue_wait_us.merge(other.stage_queue_wait_us);
  neg_synth_hits += other.neg_synth_hits;
  failure_cache_hits += other.failure_cache_hits;
}

void DomainCampaignStats::add_stages(const trace::StageTotals& delta_ns) {
  const auto us = [&delta_ns](trace::Stage stage) {
    return delta_ns[static_cast<std::size_t>(stage)] / 1000;
  };
  stage_resolve_us.add(us(trace::Stage::kResolve));
  stage_recurse_us.add(us(trace::Stage::kRecurse));
  stage_validate_us.add(us(trace::Stage::kValidate));
  stage_queue_wait_us.add(us(trace::Stage::kQueueWait));
}

TldCensusStats scan_tlds(testbed::Internet& internet,
                         const workload::EcosystemSpec& spec,
                         simnet::IpAddress scan_resolver) {
  TldCensusStats stats;
  DomainScanner scanner(internet.network(),
                        simnet::IpAddress::v4(203, 0, 113, 251),
                        scan_resolver);
  for (const auto& tld : spec.tlds()) {
    const DomainScanResult result =
        scanner.scan(dns::Name::must_parse(tld.label));
    ++stats.scanned;
    if (result.dnskey) ++stats.dnssec;
    if (result.classification != DomainScanResult::Class::kNsec3Enabled)
      continue;
    ++stats.nsec3;
    const auto& nsec3 = *result.nsec3;
    stats.iterations.add(nsec3.iterations);
    if (nsec3.iterations == 0) ++stats.zero_iterations;
    if (nsec3.iterations == 100) ++stats.at_100_iterations;
    if (nsec3.salt.empty()) ++stats.no_salt;
    if (nsec3.salt.size() == 8) ++stats.salt_8;
    if (nsec3.salt.size() == 10) ++stats.salt_10;
    if (nsec3.opt_out) ++stats.opt_out;
  }
  return stats;
}

void ResolverSweepStats::add(const ResolverProbeResult& result) {
  ++probed;
  probe_latency_us.add(result.elapsed.micros());
  timeouts += result.timeouts;
  queue_delay_us.add(result.queue_wait.micros());
  queue_drops += result.queue_drops;
  if (!result.validator) return;
  ++validators;
  if (result.first_timeout) ++stop_answering;

  for (const auto& [iterations, observation] : result.sweep) {
    RcodeShares& shares = by_iteration[iterations];
    ++shares.total;
    if (!observation.responsive) {
      if (observation.timed_out) ++shares.timeouts;
    } else if (observation.rcode == dns::Rcode::kNxDomain) {
      ++shares.nxdomain;
      if (observation.ad) ++shares.nxdomain_ad;
    } else if (observation.rcode == dns::Rcode::kServFail) {
      ++shares.servfail;
    }
  }
  if (result.implements_item6) {
    ++item6;
    if (result.insecure_limit) ++insecure_limits[*result.insecure_limit];
  }
  if (result.implements_item8) {
    ++item8;
    if (result.servfail_limit) ++servfail_limits[*result.servfail_limit];
  }
  if (result.item7_violation) ++item7_violations;
  if (result.item12_gap) ++item12_gaps;
  // The paper's Item 10 metric counts INFO-CODE 27 specifically (Google's
  // EDE 5 and OpenDNS's EDE 12 do not qualify).
  if (result.limit_ede &&
      *result.limit_ede == dns::EdeCode::kUnsupportedNsec3Iterations)
    ++ede_on_limit;
}

void ResolverSweepStats::merge(const ResolverSweepStats& other) {
  probed += other.probed;
  validators += other.validators;
  for (const auto& [iterations, shares] : other.by_iteration) {
    RcodeShares& mine = by_iteration[iterations];
    mine.nxdomain += shares.nxdomain;
    mine.nxdomain_ad += shares.nxdomain_ad;
    mine.servfail += shares.servfail;
    mine.timeouts += shares.timeouts;
    mine.total += shares.total;
  }
  item6 += other.item6;
  item8 += other.item8;
  item7_violations += other.item7_violations;
  item12_gaps += other.item12_gaps;
  ede_on_limit += other.ede_on_limit;
  for (const auto& [limit, count] : other.insecure_limits)
    insecure_limits[limit] += count;
  for (const auto& [limit, count] : other.servfail_limits)
    servfail_limits[limit] += count;
  probe_latency_us.merge(other.probe_latency_us);
  timeouts += other.timeouts;
  stop_answering += other.stop_answering;
  queue_delay_us.merge(other.queue_delay_us);
  queue_drops += other.queue_drops;
  stage_resolve_us.merge(other.stage_resolve_us);
  stage_recurse_us.merge(other.stage_recurse_us);
  stage_validate_us.merge(other.stage_validate_us);
  stage_queue_wait_us.merge(other.stage_queue_wait_us);
  neg_synth_hits += other.neg_synth_hits;
  failure_cache_hits += other.failure_cache_hits;
}

void ResolverSweepStats::add_stages(const trace::StageTotals& delta_ns) {
  const auto us = [&delta_ns](trace::Stage stage) {
    return delta_ns[static_cast<std::size_t>(stage)] / 1000;
  };
  stage_resolve_us.add(us(trace::Stage::kResolve));
  stage_recurse_us.add(us(trace::Stage::kRecurse));
  stage_validate_us.add(us(trace::Stage::kValidate));
  stage_queue_wait_us.add(us(trace::Stage::kQueueWait));
}

}  // namespace zh::scanner
