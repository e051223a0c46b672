// Schedule-invariance suite for the async scan engine
// (scanner/async_engine.hpp): the serial schedule (one worker, one item in
// flight) is the reference, and every window and jobs value must produce
// BYTE-IDENTICAL campaign artefacts to it — not merely equal aggregates —
// for every tested transport shape (clean, loss + jitter + service time,
// queueing, event tracing), for sweeps, and composed with multi-host
// sub-sharding. The oracle is the canonical shard codec
// (scanner/serialize.hpp): two runs agree iff their encoded artefacts are
// the same bytes, which covers stats, ECDF histograms, per-domain records,
// query counts and the hash-work tally at once. The retry arithmetic the
// engine does not share with simnet::exchange is checked against a plain
// exchange loop at the end of the file.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "scanner/async_engine.hpp"
#include "scanner/parallel.hpp"
#include "scanner/serialize.hpp"
#include "shard_dir.hpp"
#include "simnet/exchange.hpp"
#include "workload/resolver_population.hpp"

namespace zh::scanner {
namespace {

/// Canonical bytes of a campaign result under a FIXED envelope header, so
/// two results compare payload-for-payload regardless of how they were
/// sharded. `with_cost` is dropped only where world-construction hashing
/// legitimately differs between the two runs being compared.
std::vector<std::uint8_t> artefact_bytes(const ParallelCampaignResult& result,
                                         bool with_cost = true) {
  DomainShardArtefact artefact;
  artefact.tag = "equiv";
  artefact.shard = 0;
  artefact.of = 1;
  artefact.jobs = 1;
  artefact.stats = result.stats;
  artefact.records = result.records;
  artefact.queries_issued = result.queries_issued;
  if (with_cost) artefact.cost = result.cost;
  return encode_artefact(artefact);
}

std::vector<std::uint8_t> artefact_bytes(const ParallelSweepResult& result,
                                         bool with_cost = true) {
  SweepShardArtefact artefact;
  artefact.tag = "equiv";
  artefact.shard = 0;
  artefact.of = 1;
  artefact.jobs = 1;
  artefact.stats = result.stats;
  artefact.queries_issued = result.queries_issued;
  artefact.population = result.population;
  if (with_cost) artefact.cost = result.cost;
  return encode_artefact(artefact);
}

/// Field-by-field diagnosis for when the byte oracle fails — a raw byte
/// mismatch says nothing about WHICH aggregate diverged.
void expect_same(const DomainCampaignStats& a, const DomainCampaignStats& b) {
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_EQ(a.dnssec, b.dnssec);
  EXPECT_EQ(a.nsec3, b.nsec3);
  EXPECT_EQ(a.excluded, b.excluded);
  EXPECT_EQ(a.iterations.histogram(), b.iterations.histogram());
  EXPECT_EQ(a.salt_len.histogram(), b.salt_len.histogram());
  EXPECT_EQ(a.operators.raw(), b.operators.raw());
  EXPECT_EQ(a.scan_latency_us.histogram(), b.scan_latency_us.histogram());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.queue_delay_us.histogram(), b.queue_delay_us.histogram());
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.stage_resolve_us.histogram(), b.stage_resolve_us.histogram());
  EXPECT_EQ(a.stage_recurse_us.histogram(), b.stage_recurse_us.histogram());
  EXPECT_EQ(a.stage_validate_us.histogram(),
            b.stage_validate_us.histogram());
  EXPECT_EQ(a.stage_queue_wait_us.histogram(),
            b.stage_queue_wait_us.histogram());
}

void expect_same(const ResolverSweepStats& a, const ResolverSweepStats& b) {
  EXPECT_EQ(a.probed, b.probed);
  EXPECT_EQ(a.validators, b.validators);
  ASSERT_EQ(a.by_iteration.size(), b.by_iteration.size());
  for (const auto& [iterations, shares] : a.by_iteration) {
    const auto it = b.by_iteration.find(iterations);
    ASSERT_NE(it, b.by_iteration.end()) << iterations;
    EXPECT_EQ(shares.nxdomain, it->second.nxdomain) << iterations;
    EXPECT_EQ(shares.servfail, it->second.servfail) << iterations;
    EXPECT_EQ(shares.timeouts, it->second.timeouts) << iterations;
    EXPECT_EQ(shares.total, it->second.total) << iterations;
  }
  EXPECT_EQ(a.item6, b.item6);
  EXPECT_EQ(a.item8, b.item8);
  EXPECT_EQ(a.item7_violations, b.item7_violations);
  EXPECT_EQ(a.insecure_limits, b.insecure_limits);
  EXPECT_EQ(a.servfail_limits, b.servfail_limits);
  EXPECT_EQ(a.probe_latency_us.histogram(), b.probe_latency_us.histogram());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.stop_answering, b.stop_answering);
  EXPECT_EQ(a.queue_delay_us.histogram(), b.queue_delay_us.histogram());
  EXPECT_EQ(a.queue_drops, b.queue_drops);
}

/// The full virtual-time stack (loss + jitter + service cost), same shape
/// the parallel-campaign invariance tests use.
ParallelOptions time_shaped_options(unsigned jobs) {
  ParallelOptions options{.jobs = jobs, .base_seed = 42};
  options.loss_probability = 0.1;
  options.retry.attempts = 6;  // absorbs 10 % loss: P(miss) = 1e-6
  options.latency = simtime::LatencyModel(simtime::Duration::from_ms(20),
                                          simtime::Duration::from_ms(5),
                                          /*seed=*/42);
  options.service = {.per_sha1_block = simtime::Duration::from_us(1)};
  return options;
}

/// Reruns `options` on the serial schedule (one worker, one item in
/// flight), then under every window and every jobs value: each run must
/// reproduce the serial bytes. Extra workers build extra worlds, so the
/// jobs runs compare without the hash-work tally. Returns the serial run.
template <typename Run>
auto expect_schedule_invariant(
    ParallelOptions options, const Run& run,
    const std::vector<std::size_t>& windows = {3, 1024, 8192},
    const std::vector<unsigned>& jobs_values = {2, 4}) {
  options.jobs = 1;
  options.max_inflight = 1;
  const auto serial = run(options);
  for (const std::size_t window : windows) {
    options.max_inflight = window;
    const auto other = run(options);
    SCOPED_TRACE(testing::Message() << "window " << window);
    expect_same(serial.stats, other.stats);
    EXPECT_EQ(artefact_bytes(serial), artefact_bytes(other));
  }
  options.max_inflight = 1024;
  for (const unsigned jobs : jobs_values) {
    options.jobs = jobs;
    const auto other = run(options);
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    expect_same(serial.stats, other.stats);
    EXPECT_EQ(serial.queries_issued, other.queries_issued);
    EXPECT_EQ(artefact_bytes(serial, false), artefact_bytes(other, false));
  }
  return serial;
}

/// The domain campaign as a function of its options.
auto campaign(const workload::EcosystemSpec& spec) {
  return [&spec, factory = default_world_factory(spec)](
             const ParallelOptions& options) {
    return run_domain_campaign_parallel(spec, factory, options);
  };
}

// On a clean network, over the whole population.
TEST(AsyncEngineEquivalence, PlainCampaignBytesMatchSerial) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  expect_schedule_invariant({.base_seed = 42}, campaign(spec));
}

// Windows off the grid above must not be observable either: tiny windows
// of 2 and 5 (dense interleaving, constant slot churn) and windows just
// below, at and past the item count.
TEST(AsyncEngineEquivalence, WindowSizeIsUnobservable) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  ParallelOptions options = time_shaped_options(1);
  options.limit = 200;
  expect_schedule_invariant(options, campaign(spec), {2, 5, 199, 200, 201},
                            {});
}

// With loss, jitter and service cost all moving the clock, thousands of
// concurrent per-query timelines interleave on the wake-up heap — and the
// latency ECDFs, timeout counts and retransmission totals must still match
// the serial schedule byte-for-byte.
TEST(AsyncEngineEquivalence, TimeShapedCampaignBytesMatch) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  ParallelOptions options = time_shaped_options(1);
  options.limit = 400;
  expect_schedule_invariant(options, campaign(spec));
}

// Service queueing on top of the time-shaped stack: per-item waits and
// drops are accrued from counter deltas around each resume, and must sum
// to exactly the serial schedule's whole-item deltas.
TEST(AsyncEngineEquivalence, QueueEnabledCampaignBytesMatch) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  ParallelOptions options = time_shaped_options(1);
  options.limit = 400;
  options.queue = {.workers = 2,
                   .backlog = 8,
                   .shed = simtime::QueueModel::Shed::kServfail};
  expect_schedule_invariant(options, campaign(spec));
}

// Event tracing enabled: the tracer's stage totals feed the per-scan stage
// ECDFs, so the delta accounting around resumes is load-bearing here. The
// raw event streams legitimately interleave differently; the aggregated
// artefact must not.
TEST(AsyncEngineEquivalence, TraceEnabledCampaignBytesMatch) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  ParallelOptions options = time_shaped_options(1);
  options.limit = 300;
  options.trace.enabled = true;
  const ParallelCampaignResult serial =
      expect_schedule_invariant(options, campaign(spec));
  EXPECT_GT(serial.stats.stage_resolve_us.total(), 0u);
  EXPECT_GT(serial.trace.events_emitted(), 0u);
}

// The §4.2 resolver sweep path: ProbeFlow (valid/expired/it-N sweep/Item 7)
// through the engine, including the limit_dropper cohort whose probes time
// out by design — the hardest timing path to keep identical.
TEST(AsyncEngineEquivalence, TimeShapedSweepBytesMatch) {
  using resolver::ResolverProfile;
  workload::PanelSpec panel;
  panel.panel = workload::Panel::kOpenV4;
  panel.validator_count = 12;
  panel.non_validator_count = 2;
  panel.entries = {
      {ResolverProfile::bind9_2021(), 0.4, ""},
      {ResolverProfile::cloudflare(), 0.3, ""},
      {ResolverProfile::limit_dropper(), 0.3, ""},
  };

  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec, /*with_domains=*/false);

  const ParallelSweepResult serial = expect_schedule_invariant(
      time_shaped_options(1), [&](const ParallelOptions& options) {
        return run_resolver_sweep_parallel(panel, factory, "tasync-",
                                           1u << 22, options);
      });
  EXPECT_EQ(serial.stats.validators, 12u);
  EXPECT_GT(serial.stats.stop_answering, 0u);  // droppers really time out
}

// Composition with sub-sharding (--shard/--of/--emit-shard): two sub-shard
// runs at different windows, serialised through the real artefact files and
// merged by merge_domain_shards, reproduce the serial campaign
// byte-for-byte. Each sub-shard runs jobs=1 so the two runs build exactly
// as many worlds as the jobs=2 baseline and the hash-work tally matches
// too, keeping that comparison a FULL artefact byte-compare.
TEST(AsyncEngineEquivalence, ProcsComposedShardsMergeToSerial) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = default_world_factory(spec);

  ParallelOptions baseline_options = time_shaped_options(2);
  baseline_options.limit = 300;
  const ParallelCampaignResult baseline =
      run_domain_campaign_parallel(spec, factory, baseline_options);
  baseline_options.jobs = 1;
  baseline_options.max_inflight = 1;
  const ParallelCampaignResult serial =
      run_domain_campaign_parallel(spec, factory, baseline_options);

  const ShardDir shard_dir;
  const std::string& dir = shard_dir.path();
  ASSERT_FALSE(dir.empty());

  std::vector<std::string> paths;
  for (unsigned shard = 0; shard < 2; ++shard) {
    ParallelOptions options = time_shaped_options(1);
    options.limit = 300;
    options.max_inflight = shard == 0 ? 3 : 8192;
    options.shard_index = shard;
    options.shard_count = 2;
    const ParallelCampaignResult piece =
        run_domain_campaign_parallel(spec, factory, options);

    DomainShardArtefact artefact;
    artefact.tag = "equiv";
    artefact.shard = shard;
    artefact.of = 2;
    artefact.jobs = 1;
    artefact.stats = piece.stats;
    artefact.records = piece.records;
    artefact.queries_issued = piece.queries_issued;
    artefact.cost = piece.cost;
    const std::vector<std::uint8_t> bytes = encode_artefact(artefact);

    const std::string path =
        dir + "/shard-" + std::to_string(shard) + ".zhsa";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good()) << path;
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    file.close();
    paths.push_back(path);
  }

  ParallelCampaignResult merged;
  std::string error;
  ASSERT_TRUE(merge_domain_shards(paths, "equiv", "", merged, error)) << error;
  EXPECT_EQ(merged.jobs, 2u);
  expect_same(serial.stats, merged.stats);
  EXPECT_EQ(serial.queries_issued, merged.queries_issued);
  EXPECT_EQ(artefact_bytes(serial, false), artefact_bytes(merged, false));
  EXPECT_EQ(artefact_bytes(baseline), artefact_bytes(merged));
}

// --- One-item runs against a plain exchange loop ------------------------

using simnet::IpAddress;
using simtime::Duration;

const IpAddress kScanner = IpAddress::v4(203, 0, 113, 30);
const IpAddress kResolver = IpAddress::v4(1, 1, 1, 1);  // the factory's
const IpAddress kDropper = IpAddress::v4(203, 0, 113, 31);
const IpAddress kFront = IpAddress::v4(203, 0, 113, 32);
const IpAddress kNeighbour = IpAddress::v4(203, 0, 113, 33);
const IpAddress kNowhere = IpAddress::v4(192, 0, 2, 99);  // never attached
const simtime::RetryPolicy kRetry;  // zdns defaults: 3 attempts from 2 s

/// What the oracle saw across one scenario's items.
struct Seen {
  std::uint64_t queries = 0;        // wire attempts
  std::uint64_t timeouts = 0;       // logical queries that timed out
  std::uint64_t reasks = 0;         // transient-SERVFAIL rounds after the 1st
  std::uint64_t tcp_fallbacks = 0;  // truncated answers refetched over TCP
  std::uint64_t tokens = 0;         // negative-probe tokens handed out
  std::vector<ResolverProbeResult> probes;
};

/// The oracle: a plain loop over simnet::exchange. Each logical query is
/// one exchange, re-asked with a fresh id while the answer is a transient
/// SERVFAIL, up to the retry budget in rounds.
template <typename Flow>
void exchange_loop(simnet::Network& network, const IpAddress& destination,
                   Flow& flow, Seen& seen) {
  std::uint16_t id = 1;
  while (const FlowQuery* q = flow.pending()) {
    const Duration start = network.clock().now();
    FlowOutcome outcome;
    simnet::ExchangeOutcome ex;
    for (unsigned round = 0; round < kRetry.attempts; ++round) {
      seen.reasks += round > 0 ? 1 : 0;
      dns::Message query = dns::Message::make_query(id++, q->qname, q->type,
                                                    /*dnssec_ok=*/true);
      query.header.cd = q->cd;
      ex = simnet::exchange(network, kScanner, destination, query, kRetry);
      outcome.attempts += ex.attempts;
      seen.tcp_fallbacks += ex.tcp_fallback ? 1 : 0;
      if (!ex.response || !simnet::transient_servfail(*ex.response)) break;
    }
    seen.queries += outcome.attempts;
    seen.timeouts += ex.timed_out ? 1 : 0;
    outcome.response = std::move(ex.response);
    outcome.timed_out = ex.timed_out;
    outcome.latency = network.clock().now() - start;
    flow.feed(outcome);
  }
}

/// One world of a twin pair: the default shard world (its scan resolver
/// validates) plus a limit dropper.
struct Twin {
  explicit Twin(const workload::EcosystemSpec& spec)
      : world(default_world_factory(spec)(0, 1)),
        dropper(world.internet->make_resolver(
            resolver::ResolverProfile::limit_dropper(), kDropper)) {}
  simnet::Network& network() { return world.internet->network(); }

  ShardWorld world;
  std::unique_ptr<resolver::RecursiveResolver> dropper;
};

// Scenario set-ups, applied alike to both twins.

/// A 20 ± 5 ms link and 1 µs of service per SHA-1 block.
void timed(Twin& twin) {
  twin.network().set_latency_model(simtime::LatencyModel(
      Duration::from_ms(20), Duration::from_ms(5), /*seed=*/42));
  twin.network().set_service_model({.per_sha1_block = Duration::from_us(1)});
}

void lossy(Twin& twin) {
  timed(twin);
  twin.network().set_loss(0.3, /*seed=*/42);
}

/// On every other delivery to kFront a neighbour's query reaches the
/// resolver at the same instant and takes its only worker, so the client's
/// query is shed as SERVFAIL + EDE 23, which the client re-asks. The front
/// answers once the resolver is idle again: the contention never outlives
/// the delivery.
void contended(Twin& twin) {
  timed(twin);
  simnet::Network& network = twin.network();
  network.set_queue(kResolver, {.workers = 1,
                                .backlog = 0,
                                .shed = simtime::QueueModel::Shed::kServfail});
  auto deliveries = std::make_shared<std::uint64_t>(0);
  network.attach(kFront, [&network, deliveries](const dns::Message& query,
                                                const IpAddress&) {
    if ((*deliveries)++ % 2 == 0) return network.send(kFront, kResolver, query);
    const Duration arrival = network.clock().now();
    (void)network.send(kNeighbour, kResolver, query);
    const Duration idle = network.clock().now();
    network.clock().set(arrival);
    auto response = network.send(kFront, kResolver, query);
    network.clock().set(std::max(idle, network.clock().now()));
    return response;
  });
}

/// Every answer to the scanner picks up ~1.5 KB of TXT on the path — past
/// its 1232-byte EDNS buffer, so each UDP answer comes back truncated and is
/// refetched over TCP.
void padded(Twin& twin) {
  timed(twin);
  const dns::ResourceRecord pad = dns::ResourceRecord::make(
      dns::Name::must_parse("pad.test"), dns::RrType::kTxt, 60,
      dns::TxtRdata{{std::string(250, 'x')}});
  twin.network().set_tamper(
      [pad](dns::Message& response, const IpAddress&, const IpAddress& to) {
        if (to != kScanner) return false;
        response.additionals.insert(response.additionals.end(), 6, pad);
        return true;
      });
}

auto fields(const ZoneObservation& o) {
  return std::tie(o.responsive, o.timed_out, o.rcode, o.ad, o.ra, o.ede,
                  o.ede_text, o.attempts, o.latency);
}

/// The probe's inferences are the flow's, from the observations compared
/// here; the totals are what the driver adds.
void expect_same(const ResolverProbeResult& a, const ResolverProbeResult& b) {
  EXPECT_EQ(std::tie(a.elapsed, a.timeouts, a.queue_wait, a.queue_drops),
            std::tie(b.elapsed, b.timeouts, b.queue_wait, b.queue_drops));
  EXPECT_EQ(fields(a.valid_zone), fields(b.valid_zone));
  EXPECT_EQ(fields(a.expired_zone), fields(b.expired_zone));
  EXPECT_EQ(fields(a.item7_zone), fields(b.item7_zone));
  ASSERT_EQ(a.sweep.size(), b.sweep.size());
  for (auto i = a.sweep.begin(), j = b.sweep.begin(); i != a.sweep.end();
       ++i, ++j) {
    EXPECT_EQ(i->first, j->first);
    EXPECT_EQ(fields(i->second), fields(j->second)) << "it-" << i->first;
  }
}

void expect_same(const DomainScanResult& a, const DomainScanResult& b) {
  const auto head = [](const DomainScanResult& r) {
    return std::tie(r.apex, r.classification, r.dnskey, r.nsec3param_count,
                    r.ns_names, r.nsec_seen, r.elapsed, r.timeouts,
                    r.timed_out);
  };
  const auto params = [](const DomainScanResult& r) {
    const Nsec3Observation none;
    const Nsec3Observation& o = r.nsec3 ? *r.nsec3 : none;
    return std::make_tuple(
        r.nsec3param ? r.nsec3param->encode() : dns::RdataBytes{},
        r.nsec3.has_value(), o.iterations, o.salt, o.opt_out,
        o.records_consistent, o.matches_nsec3param);
  };
  EXPECT_EQ(head(a), head(b));
  EXPECT_EQ(params(a), params(b));
}

/// One item through the oracle, flow-keyed on `key` and timed like a
/// one-item engine run; the result carries the same totals.
template <typename Flow>
auto oracle_item(simnet::Network& network, std::uint64_t key,
                 const IpAddress& destination, Flow flow, Seen& seen) {
  network.set_flow(key);
  const Duration start = network.clock().now();
  const simtime::QueueCounters queue = network.queue_counters();
  const std::uint64_t timeouts = seen.timeouts;
  exchange_loop(network, destination, flow, seen);
  auto result = flow.take_result();
  result.elapsed = network.clock().now() - start;
  result.timeouts =
      static_cast<decltype(result.timeouts)>(seen.timeouts - timeouts);
  if constexpr (std::is_same_v<Flow, ProbeFlow>) {
    result.queue_wait = Duration::from_ns(static_cast<std::int64_t>(
        network.queue_counters().wait_ns - queue.wait_ns));
    result.queue_drops = network.queue_counters().dropped - queue.dropped;
  }
  return result;
}

/// Sets up twin worlds alike, then scans domains [0, scans) through `via`
/// and probes each of `probes`: through the oracle on one twin, as one-item
/// DomainScanner/ResolverProber runs on the other. Every item must agree in
/// result, elapsed time and timeouts, and the wire attempts in total.
Seen run_twins(const char* fate, const workload::EcosystemSpec& spec,
               const std::function<void(Twin&)>& configure,
               const IpAddress& via, std::size_t scans,
               const std::vector<IpAddress>& probes) {
  SCOPED_TRACE(fate);
  Twin oracle(spec);
  Twin engine(spec);
  configure(oracle);
  configure(engine);
  Seen seen;
  DomainScanner scanner(engine.network(), kScanner, via, kRetry);
  for (std::size_t index = 0; index < scans; ++index) {
    const dns::Name apex = spec.domain(index).apex;
    SCOPED_TRACE(apex.to_string());
    expect_same(oracle_item(oracle.network(),
                            simtime::fnv1a(apex.canonical().to_string()), via,
                            DomainScanFlow(apex, [&] { return seen.tokens++; }),
                            seen),
                scanner.scan(apex));
  }
  ResolverProber prober(engine.network(), kScanner, engine.world.probe_zones,
                        kRetry);
  for (const IpAddress& target : probes) {
    const std::string token = "oracle-" + target.to_string();
    SCOPED_TRACE(token);
    seen.probes.push_back(oracle_item(
        oracle.network(), simtime::fnv1a(token), target,
        ProbeFlow(&oracle.world.probe_zones, token), seen));
    expect_same(seen.probes.back(), prober.probe(target, token));
  }
  EXPECT_EQ(seen.queries, scanner.queries_issued() + prober.queries_issued());
  return seen;
}

// Each fate the engine's retry arithmetic must get right — and each fate
// must really occur.
TEST(AsyncEngineOracle, OneItemRunsMatchTheExchangeLoop) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});

  const Seen lost = run_twins("loss 0.3 with jitter and service time", spec,
                              lossy, kResolver, 40, {kResolver, kDropper});
  EXPECT_GT(lost.timeouts, 0u);

  const Seen shed = run_twins("queue shedding to SERVFAIL + EDE 23", spec,
                              contended, kFront, 40, {kFront});
  EXPECT_GT(shed.reasks, 0u);
  EXPECT_GT(shed.probes[0].queue_drops, 0u);

  const Seen dropped = run_twins("limit_dropper handler drops", spec, timed,
                                 kResolver, 0, {kDropper});
  EXPECT_GT(dropped.timeouts, 0u);
  EXPECT_TRUE(dropped.probes[0].first_timeout);

  const Seen nowhere = run_twins("an unattached destination", spec, timed,
                                 kNowhere, 10, {kNowhere});
  EXPECT_GT(nowhere.queries, 0u);
  EXPECT_EQ(nowhere.timeouts, 0u);
  EXPECT_FALSE(nowhere.probes[0].responsive);

  const Seen truncated =
      run_twins("a UDP answer truncated and refetched over TCP", spec, padded,
                kResolver, 20, {kResolver});
  EXPECT_GT(truncated.tcp_fallbacks, 0u);
}

}  // namespace
}  // namespace zh::scanner
