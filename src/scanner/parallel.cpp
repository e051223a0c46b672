#include "scanner/parallel.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "crypto/cost_meter.hpp"
#include "scanner/async_engine.hpp"
#include "workload/install.hpp"

namespace zh::scanner {
namespace {

/// Worker-thread hash-work snapshot (the thread-local meters start at zero
/// on a fresh thread, so the final reading is the worker's total).
CostTally read_worker_cost() {
  CostTally cost;
  cost.sha1_blocks = crypto::CostMeter::sha1_blocks();
  cost.sha2_blocks = crypto::CostMeter::sha2_blocks();
  cost.nsec3_hashes = crypto::CostMeter::nsec3_hashes();
  return cost;
}

/// Credits summed worker hash-work to the calling thread's meter, so cost
/// scopes around a parallel campaign see the same totals as a serial run.
void credit_caller(const CostTally& cost) {
  crypto::CostMeter::add_sha1_blocks(cost.sha1_blocks);
  crypto::CostMeter::add_sha2_blocks(cost.sha2_blocks);
  crypto::CostMeter::add_nsec3_hashes(cost.nsec3_hashes);
}

void accumulate(CostTally& into, const CostTally& from) {
  into.sha1_blocks += from.sha1_blocks;
  into.sha2_blocks += from.sha2_blocks;
  into.nsec3_hashes += from.nsec3_hashes;
}

/// Distinct per-shard scanner source address (198.18.0.0/15, the
/// benchmarking range). No campaign statistic depends on it.
simnet::IpAddress shard_source(unsigned shard) {
  return simnet::IpAddress::v4(198, 18, static_cast<std::uint8_t>(shard >> 8),
                               static_cast<std::uint8_t>(shard & 0xff));
}

unsigned effective_jobs(const ParallelOptions& options) {
  return options.jobs == 0 ? default_jobs() : options.jobs;
}

/// Process-level sub-shard span (0 is normalised to "no sub-sharding").
unsigned shard_span(const ParallelOptions& options) {
  return options.shard_count == 0 ? 1 : options.shard_count;
}

/// Runs `body(shard)` on `jobs` worker threads and rethrows the first
/// worker failure (by shard order) after all workers joined.
void run_sharded(unsigned jobs,
                 const std::function<void(unsigned shard)>& body) {
  std::vector<std::exception_ptr> errors(jobs);
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (unsigned shard = 0; shard < jobs; ++shard) {
    workers.emplace_back([shard, &body, &errors] {
      try {
        body(shard);
      } catch (...) {
        errors[shard] = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace

unsigned default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ShardWorldFactory default_world_factory(const workload::EcosystemSpec& spec,
                                        bool with_domains,
                                        resolver::ResolverProfile scan_profile) {
  const workload::EcosystemSpec* shared = &spec;
  return [shared, with_domains,
          scan_profile = std::move(scan_profile)](unsigned, unsigned) {
    ShardWorld world;
    world.internet = std::make_unique<testbed::Internet>();
    world.probe_zones = testbed::add_probe_infrastructure(*world.internet);
    if (with_domains) workload::install_ecosystem(*world.internet, *shared);
    world.internet->build();
    world.scan_resolver = world.internet->make_resolver(
        scan_profile, simnet::IpAddress::v4(1, 1, 1, 1));
    return world;
  };
}

ParallelCampaignResult run_domain_campaign_parallel(
    const workload::EcosystemSpec& spec, const ShardWorldFactory& factory,
    const ParallelOptions& options) {
  const unsigned jobs = effective_jobs(options);

  struct ShardOutcome {
    DomainCampaignStats stats;
    std::vector<CompactDomainRecord> records;
    std::uint64_t queries = 0;
    CostTally cost;
    trace::ShardTrace trace;
  };
  std::vector<ShardOutcome> outcomes(jobs);

  run_sharded(jobs, [&](unsigned shard) {
    ShardOutcome& out = outcomes[shard];
    ShardWorld world = factory(shard, jobs);
    // One shared seed, not one per worker: loss and jitter draws are keyed
    // on (seed, link, flow, sequence), and flows are item-local, so the
    // same item sees the same fate in every sharding.
    if (options.loss_probability > 0.0) {
      world.internet->network().set_loss(options.loss_probability,
                                         options.base_seed);
    }
    world.internet->network().set_latency_model(options.latency);
    world.internet->network().set_service_model(options.service);
    world.internet->network().set_queue_model(options.queue);
    world.internet->network().tracer().configure(options.trace);
    DomainCampaign campaign(*world.internet, spec,
                            world.scan_resolver->address(),
                            shard_source(shard), options.retry);
    // Compose process-level and thread-level sharding: thread t of this
    // sub-shard covers the global residues shard_index + span·t (mod
    // span·jobs) — the union over processes and threads tiles the serial
    // visit order exactly (see ParallelOptions::shard_index).
    const unsigned span = shard_span(options);
    campaign.run_shard(options.shard_index + span * shard,
                       static_cast<std::size_t>(span) * jobs, options.limit,
                       options.stride, options.max_inflight);
    out.stats = campaign.stats();
    out.records = campaign.records();
    out.queries = campaign.queries_issued();
    out.trace = world.internet->network().tracer().take();
    out.cost = read_worker_cost();
  });

  ParallelCampaignResult result;
  result.jobs = jobs;
  for (unsigned shard = 0; shard < jobs; ++shard) {
    ShardOutcome& out = outcomes[shard];
    result.stats.merge(out.stats);
    result.records.insert(result.records.end(), out.records.begin(),
                          out.records.end());
    result.queries_issued += out.queries;
    accumulate(result.cost, out.cost);
    result.trace.add_shard(shard, std::move(out.trace));
  }
  // Shards interleave by position; re-sorting by domain index restores the
  // serial scan order, making the record list K-invariant too.
  std::sort(result.records.begin(), result.records.end(),
            [](const CompactDomainRecord& a, const CompactDomainRecord& b) {
              return a.index < b.index;
            });
  credit_caller(result.cost);
  return result;
}

ParallelSweepResult run_resolver_sweep_parallel(
    const workload::PanelSpec& panel, const ShardWorldFactory& factory,
    const std::string& token_prefix, std::uint32_t address_base,
    const ParallelOptions& options) {
  const unsigned jobs = effective_jobs(options);

  struct ShardOutcome {
    ResolverSweepStats stats;
    std::uint64_t queries = 0;
    std::size_t population = 0;
    CostTally cost;
    trace::ShardTrace trace;
  };
  std::vector<ShardOutcome> outcomes(jobs);

  run_sharded(jobs, [&](unsigned shard) {
    ShardOutcome& out = outcomes[shard];
    ShardWorld world = factory(shard, jobs);
    if (options.loss_probability > 0.0) {
      world.internet->network().set_loss(options.loss_probability,
                                         options.base_seed);
    }
    world.internet->network().set_latency_model(options.latency);
    world.internet->network().set_service_model(options.service);
    world.internet->network().set_queue_model(options.queue);
    world.internet->network().tracer().configure(options.trace);
    // Every worker instantiates the full (identical) population; it only
    // probes its own members. Instantiation is cheap next to probing.
    workload::BuiltPopulation population = workload::instantiate_panel(
        *world.internet, panel, address_base, options.population_seed);
    // Global residue of this worker thread within the span·jobs-way
    // partition (span = process-level sub-shards; see the campaign path).
    const unsigned span = shard_span(options);
    const std::size_t global_shard = options.shard_index + span * shard;
    const std::size_t global_jobs = static_cast<std::size_t>(span) * jobs;
    // Exactly one worker across all processes reports the population.
    if (global_shard == 0) out.population = population.members.size();
    std::vector<std::size_t> members;
    for (std::size_t j = global_shard; j < population.members.size();
         j += global_jobs)
      members.push_back(j);
    // RFC 8198/9520 hits across this shard's members: probe tokens are
    // member-keyed, so per-member deltas are sharding-invariant and the
    // shard sums reproduce the serial sweep exactly.
    trace::Metrics& sweep_metrics = world.internet->network().tracer().metrics();
    const std::uint64_t synth_before =
        sweep_metrics.value("resolver.neg_synth_hit");
    const std::uint64_t failure_before =
        sweep_metrics.value("resolver.failure_cache_hit");
    AsyncEngine<ProbeFlow> engine(
        world.internet->network(), shard_source(shard),
        {.max_inflight = options.max_inflight, .retry = options.retry});
    engine.run(
        members.size(),
        [&](std::size_t position) {
          const std::size_t j = members[position];
          const std::string token = token_prefix + std::to_string(j);
          return AsyncItem<ProbeFlow>{
              .index = j,
              .flow_key = simtime::fnv1a(token),
              .destination = population.members[j].address,
              .flow = ProbeFlow(&world.probe_zones, token)};
        },
        [&](std::size_t, ProbeFlow& flow, const TaskTotals& totals) {
          // Fold as it settles: every sweep aggregate is a count.
          ResolverProbeResult result = flow.take_result();
          apply_totals(result, totals);
          out.stats.add(result);
          out.stats.add_stages(totals.stages);
        });
    out.queries = engine.queries_issued();
    out.stats.neg_synth_hits +=
        sweep_metrics.value("resolver.neg_synth_hit") - synth_before;
    out.stats.failure_cache_hits +=
        sweep_metrics.value("resolver.failure_cache_hit") - failure_before;
    out.trace = world.internet->network().tracer().take();
    out.cost = read_worker_cost();
  });

  ParallelSweepResult result;
  result.jobs = jobs;
  for (unsigned shard = 0; shard < jobs; ++shard) {
    ShardOutcome& out = outcomes[shard];
    result.stats.merge(out.stats);
    result.queries_issued += out.queries;
    result.population += out.population;
    accumulate(result.cost, out.cost);
    result.trace.add_shard(shard, std::move(out.trace));
  }
  credit_caller(result.cost);
  return result;
}

}  // namespace zh::scanner
