// Sharded parallel campaign engine.
//
// The paper's pipelines are embarrassingly parallel over their populations
// (ZDNS gets its throughput from exactly this shape: independent resolver
// pipelines feeding a mergeable aggregator), but zh::simnet::Network is
// strictly single-threaded. The engine therefore splits a campaign into K
// deterministic shards, gives each worker thread its *own*
// testbed::Internet (rebuilt from the same spec — construction is a pure
// function of the seed, so every worker sees a byte-identical world), runs
// the shards concurrently, and merges the per-shard aggregates.
//
// Determinism guarantees:
//  * Shard s of K covers the positions j ≡ s (mod K) of the serial visit
//    order, so the union of shards is exactly the serial work list.
//  * Every per-item observation is a pure function of the item (zones,
//    profiles and probe answers derive from (seed, index), never from scan
//    order), and merging is integer-count addition — commutative and
//    associative. Campaign statistics are therefore bit-identical for any
//    jobs value, including 1, and for any merge order.
//  * Simulated loss, latency jitter and service time are flow-keyed: every
//    draw is a pure function of (seed, link, flow key, per-flow sequence),
//    and campaigns key flows on item identity (apex, probe token). One
//    item's transport fate therefore never depends on other items' traffic,
//    and loss/latency-enabled campaigns stay bit-identical across K too.
//
// Cost accounting: crypto::CostMeter is thread-local. The engine snapshots
// each worker's counters and credits the totals back to the calling
// thread's meter, so a Sha1WorkScope around a parallel campaign reports the
// same hash work as the serial run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scanner/campaign.hpp"
#include "simtime/latency.hpp"
#include "simtime/simtime.hpp"
#include "testbed/internet.hpp"
#include "trace/export.hpp"
#include "workload/resolver_population.hpp"
#include "workload/spec.hpp"

namespace zh::scanner {

/// `std::thread::hardware_concurrency()`, floored at 1.
unsigned default_jobs();

/// One worker's private world. Destroyed members in reverse order: the
/// resolver detaches before the internet (and its network) goes away.
struct ShardWorld {
  std::unique_ptr<testbed::Internet> internet;
  std::vector<testbed::ProbeZone> probe_zones;
  std::unique_ptr<resolver::RecursiveResolver> scan_resolver;
};

/// Builds one worker's world; invoked *inside* the worker thread so the
/// simnet owner-thread binding lands on the thread that will drive it.
using ShardWorldFactory = std::function<ShardWorld(unsigned shard,
                                                   unsigned jobs)>;

/// The standard factory: probe infrastructure + (optionally) the synthetic
/// domain ecosystem + a scan resolver at 1.1.1.1 — the same world
/// bench_common.hpp builds. The spec is shared read-only across workers and
/// must outlive the campaign. `scan_profile` overrides the scan resolver's
/// profile (default: the historical Cloudflare profile); the bench flags
/// use it to hand every worker an aggressive-cache-enabled resolver.
ShardWorldFactory default_world_factory(
    const workload::EcosystemSpec& spec, bool with_domains = true,
    resolver::ResolverProfile scan_profile =
        resolver::ResolverProfile::cloudflare());

/// The scan engine: per-query state machines over a wake-up heap, up to
/// max_inflight resolutions per worker (scanner/async_engine.hpp).
enum class Engine {
  kAsync,
};

struct ParallelOptions {
  /// Worker count K. 0 means default_jobs().
  unsigned jobs = 1;
  /// Kept because perfbench/driver/{scan,sweep}.cpp assign it.
  Engine engine = Engine::kAsync;
  /// Concurrent resolutions per worker; unobservable in every artefact.
  std::size_t max_inflight = 1024;
  /// Process-level sub-sharding (scanner/process.hpp): this run covers
  /// only the campaign positions j ≡ shard_index (mod shard_count) of the
  /// serial visit order. Worker thread t then covers the global residue
  /// shard_index + shard_count·t of a shard_count·jobs-way partition, so
  /// K processes × J threads tile the work list exactly like one process
  /// at --jobs K·J — which is what keeps process-mode campaigns
  /// bit-identical to in-process ones. Default: the whole campaign.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// Forwarded to DomainCampaign::run_shard.
  std::size_t limit = static_cast<std::size_t>(-1);
  std::size_t stride = 1;
  /// Seed of the loss draws. Every worker uses this one seed: draws are
  /// flow-keyed, so an item meets the same fate in every sharding.
  std::uint64_t base_seed = 42;
  /// Seed for resolver-population instantiation: deliberately *not* shard-
  /// derived, so every worker instantiates the identical population.
  std::uint64_t population_seed = 7;
  /// Simulated query loss inside each worker's network (0 disables). Loss
  /// draws are flow-keyed on item identity, so results — including which
  /// queries are lost — are bit-identical for any jobs value.
  double loss_probability = 0.0;
  /// Client retransmission policy for scanners and probers (zdns defaults).
  simtime::RetryPolicy retry{};
  /// Per-link latency model installed into each worker's network.
  simtime::LatencyModel latency{};
  /// SHA-1-block service-time model installed into each worker's network.
  simtime::ServiceModel service{};
  /// Default service-queue model installed into each worker's network
  /// (inactive by default). Queue epochs are flow-scoped — set_flow()
  /// resets the live queue state — so per-item observations stay
  /// bit-identical for any jobs value even with queueing on.
  simtime::QueueModel queue{};
  /// Event-tracing configuration applied to each worker's tracer (off by
  /// default — see trace/trace.hpp). Per-shard buffers merge in shard
  /// order into the result's Collector. Raw event streams are per-shard
  /// artefacts: byte-identical for the same (seed, jobs, max_inflight) —
  /// concurrent scans interleave their events — while the
  /// *aggregated* quantities (stats, stage Ecdfs, per-item records) stay
  /// bit-identical for any jobs value.
  trace::Config trace{};
};

/// Hash work performed by the engine's workers (summed over shards).
struct CostTally {
  std::uint64_t sha1_blocks = 0;
  std::uint64_t sha2_blocks = 0;
  std::uint64_t nsec3_hashes = 0;
};

struct ParallelCampaignResult {
  DomainCampaignStats stats;
  /// All shards' records, re-sorted by domain index (== serial order).
  std::vector<CompactDomainRecord> records;
  std::uint64_t queries_issued = 0;
  CostTally cost;
  unsigned jobs = 1;
  /// Per-shard traces merged in shard order (empty unless options.trace
  /// enabled event tracing; metrics are collected regardless).
  trace::Collector trace;
};

/// Runs the §4.1 domain campaign sharded K ways. Statistics, records and
/// query counts are bit-identical for every K.
ParallelCampaignResult run_domain_campaign_parallel(
    const workload::EcosystemSpec& spec, const ShardWorldFactory& factory,
    const ParallelOptions& options);

struct ParallelSweepResult {
  ResolverSweepStats stats;
  std::uint64_t queries_issued = 0;
  std::size_t population = 0;  // members probed (validators + filtered)
  CostTally cost;
  unsigned jobs = 1;
  /// Per-shard traces merged in shard order (see ParallelCampaignResult).
  trace::Collector trace;
};

/// Runs the §4.2 resolver probing sweep over one Figure 3 panel sharded K
/// ways. Every worker instantiates the identical panel population in its
/// own world (instantiate_panel is deterministic) and probes the members
/// j ≡ shard (mod K); probe tokens are keyed by the member's global index,
/// so query names — and therefore every observation — are K-invariant.
ParallelSweepResult run_resolver_sweep_parallel(
    const workload::PanelSpec& panel, const ShardWorldFactory& factory,
    const std::string& token_prefix, std::uint32_t address_base,
    const ParallelOptions& options);

}  // namespace zh::scanner
