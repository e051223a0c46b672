// `sweep`: the §5.2 Figure 3 probe sweep over one panel. An untraced
// repetition calls run_resolver_sweep_parallel on one worker with the async
// engine over a domain-less world (default_world_factory): the program
// instantiates the panel and probes every member across the 49 it-N zones
// under fresh tokens drawn from the run seed. The panel resolvers are
// created inside that call and cannot be wrapped, so a traced repetition
// takes the same public steps itself (instantiate_panel, then
// AsyncEngine<ProbeFlow>) with the shims attached. Both fold the same
// artefact, and run_repetitions checks that their digests agree.
//
// A set-up (world build and panel) lasts milliseconds, so each untraced
// repetition first times kSetups set-ups of those steps for setup_s.
//
// Unit: one probed resolver. Every query is a cache miss that recurses and
// validates an NSEC3 proof at up to 500 iterations.
#include <cstdio>
#include <memory>
#include <string>

#include "alloc.hpp"
#include "analysis/serialize.hpp"
#include "common.hpp"
#include "scanner/async_engine.hpp"
#include "scanner/campaign.hpp"
#include "scanner/parallel.hpp"
#include "scanner/serialize.hpp"
#include "shims.hpp"
#include "spans.hpp"
#include "workload/resolver_population.hpp"
#include "workload/spec.hpp"

namespace perfbench {
namespace {

using namespace zh;

constexpr workload::Panel kPanel = workload::Panel::kOpenV4;
/// 63 validators + 6 non-validators: a repetition takes about a second, so
/// a run holds enough of them for its medians to ride out host noise.
constexpr double kResolverScale = 0.0006;
constexpr std::uint32_t kAddressBase = 1u << 20;
/// The population seed every bench uses (ParallelOptions::population_seed).
/// It stays fixed: at this panel size a seeded draw would move the behaviour
/// mix, and with it the hash work per probe, by far more than the run-to-run
/// spread the benchmark must resolve (±8 % between seeds at 300 members).
constexpr std::uint64_t kPopulationSeed = 7;
/// Set-ups timed per untraced repetition.
constexpr int kSetups = 5;

struct Outcome {
  scanner::ResolverSweepStats stats;
  std::uint64_t queries = 0;
  std::size_t members = 0;
  std::size_t validating_members = 0;
  std::vector<double> setup_s;  // untraced only
  std::int64_t start_ns = 0;
  std::int64_t setup_end_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;
  // Traced only.
  ShimSink sink;
  double virtual_s = 0.0;
  double build_heap_mb = 0.0;
  std::uint64_t measured_allocs = 0;
  std::uint64_t resolver_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t tcp_queries = 0;
  std::uint64_t truncations = 0;
};

std::string token_prefix(std::uint64_t seed) {
  char prefix[24];
  std::snprintf(prefix, sizeof prefix, "t%08llx-",
                static_cast<unsigned long long>(seed & 0xffffffffu));
  return prefix;
}

scanner::ParallelOptions sweep_options() {
  scanner::ParallelOptions options;
  options.jobs = 1;
  options.engine = scanner::Engine::kAsync;
  options.max_inflight = 1024;
  options.population_seed = kPopulationSeed;
  return options;
}

std::size_t validating(const workload::BuiltPopulation& population) {
  std::size_t count = 0;
  for (const workload::PopulationMember& member : population.members)
    count += member.validating ? 1 : 0;
  return count;
}

/// An untraced repetition: kSetups timed set-ups of one worker's steps, then
/// the program's own sweep driver. Set-up ends when its world is built; the
/// panel instantiation after it (≈ 0.1 ms) counts as measured time.
void run_untraced(const workload::EcosystemSpec& spec,
                  const std::string& prefix, Outcome& out) {
  const workload::PanelSpec panel =
      workload::figure3_panel(kPanel, kResolverScale);
  const scanner::ShardWorldFactory factory =
      scanner::default_world_factory(spec, /*with_domains=*/false);
  for (int i = 0; i < kSetups; ++i) {
    cold_chain_memo();
    const std::int64_t start = now_ns();
    const scanner::ShardWorld world = factory(0, 1);
    const workload::BuiltPopulation population = workload::instantiate_panel(
        *world.internet, panel, kAddressBase, kPopulationSeed);
    out.setup_s.push_back(seconds_between(start, now_ns()));
    out.validating_members = validating(population);
  }

  out.start_ns = now_ns();
  const double cpu_start = process_cpu_s();
  const scanner::ParallelSweepResult result =
      scanner::run_resolver_sweep_parallel(
          panel,
          [&](unsigned shard, unsigned jobs) {
            scanner::ShardWorld world = factory(shard, jobs);
            out.setup_end_ns = now_ns();
            return world;
          },
          prefix, kAddressBase, sweep_options());
  out.end_ns = now_ns();
  out.cpu_s = process_cpu_s() - cpu_start;
  out.stats = result.stats;
  out.queries = result.queries_issued;
  out.members = result.population;
}

/// A traced repetition: run_resolver_sweep_parallel's steps for one worker,
/// with the panel resolvers shimmed.
void run_traced(const std::string& prefix, Outcome& out) {
  cold_chain_memo();
  out.start_ns = now_ns();
  const double cpu_start = process_cpu_s();
  const double heap_start = heap_in_use_mib();
  auto internet = std::make_unique<testbed::Internet>();
  std::vector<testbed::ProbeZone> probe_zones;
  {
    const ScopedSpan span(SpanKind::kInstall);
    probe_zones = testbed::add_probe_infrastructure(*internet);
  }
  {
    const ScopedSpan span(SpanKind::kBuild);
    internet->build();
  }
  out.build_heap_mb = heap_in_use_mib() - heap_start;
  const scanner::ParallelOptions options = sweep_options();
  simnet::Network& network = internet->network();
  network.set_latency_model(options.latency);
  network.set_service_model(options.service);
  network.set_queue_model(options.queue);
  workload::BuiltPopulation population;
  {
    const ScopedSpan span(SpanKind::kPanel);
    population = workload::instantiate_panel(
        *internet, workload::figure3_panel(kPanel, kResolverScale),
        kAddressBase, kPopulationSeed);
  }
  out.members = population.members.size();
  out.validating_members = validating(population);
  for (const auto& resolver : population.resolvers)
    attach_resolver_shim(network, *resolver, out.sink);
  out.setup_end_ns = now_ns();
  const std::uint64_t allocs_start = alloc::thread_count();

  {
    const ScopedSpan span(SpanKind::kScannerRun);
    scanner::AsyncOptions async_options;
    async_options.max_inflight = options.max_inflight;
    async_options.retry = options.retry;
    scanner::AsyncEngine<scanner::ProbeFlow> engine(
        network, simnet::IpAddress::v4(198, 18, 0, 0), async_options);
    struct Finished {
      scanner::ResolverProbeResult result;
      scanner::TaskTotals totals;
    };
    std::vector<Finished> finished(out.members);
    const simtime::Duration makespan = engine.run(
        out.members,
        [&](std::size_t position) {
          const std::string token = prefix + std::to_string(position);
          scanner::AsyncItem<scanner::ProbeFlow> item;
          item.index = position;
          item.flow_key = simtime::fnv1a(token);
          item.destination = population.members[position].address;
          item.flow = scanner::ProbeFlow(&probe_zones, token);
          return item;
        },
        [&](std::size_t position, scanner::ProbeFlow& flow,
            const scanner::TaskTotals& totals) {
          finished[position] = Finished{flow.take_result(), totals};
        });
    // Fold in member order, as run_resolver_sweep_parallel does.
    for (Finished& probe : finished) {
      probe.result.timeouts = probe.totals.timeouts;
      probe.result.elapsed = probe.totals.elapsed;
      probe.result.queue_wait = simtime::Duration::from_ns(
          static_cast<std::int64_t>(probe.totals.queue_wait_ns));
      probe.result.queue_drops = probe.totals.queue_drops;
      out.stats.add(probe.result);
      out.stats.add_stages(probe.totals.stages);
    }
    out.queries = engine.queries_issued();
    out.virtual_s = static_cast<double>(makespan.nanos()) / 1e9;
  }
  out.end_ns = now_ns();
  out.cpu_s = process_cpu_s() - cpu_start;
  out.measured_allocs = alloc::thread_count() - allocs_start;
  for (const auto& resolver : population.resolvers) {
    const resolver::ResolverStats& stats = resolver->stats();
    out.resolver_queries += stats.queries_handled;
    out.cache_hits += stats.cache_hits;
    out.upstream_queries += stats.upstream_queries;
  }
  out.deliveries = network.queries_sent();
  out.tcp_queries = network.tcp_queries();
  out.truncations = network.truncations();
}

double share(std::uint64_t part, std::uint64_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(total);
}

/// Output checks: every member is probed and classified as its stratum
/// says; per iteration the NXDOMAIN, SERVFAIL and timeout shares sum to
/// 100 %; AD+NXDOMAIN steps down after 50, 100 and 150; SERVFAIL is
/// present from 151. Returns the items that failed.
std::uint64_t check(const Outcome& out, Report& report) {
  const scanner::ResolverSweepStats& s = out.stats;
  std::uint64_t failed = 0;
  if (s.probed != out.members) {
    failed += out.members > s.probed ? out.members - s.probed : 0;
    report.fail_check("probed " + std::to_string(s.probed) + " of " +
                      std::to_string(out.members) + " members");
  }
  if (s.validators != out.validating_members) {
    failed += s.validators > out.validating_members
                  ? s.validators - out.validating_members
                  : out.validating_members - s.validators;
    report.fail_check(std::to_string(s.validators) + " validators found, " +
                      std::to_string(out.validating_members) + " in the panel");
  }
  if (s.timeouts > 0)
    report.fail_check(std::to_string(s.timeouts) + " probe timeouts");
  for (const auto& [iterations, shares] : s.by_iteration) {
    if (shares.nxdomain + shares.servfail + shares.timeouts != shares.total)
      report.fail_check("it-" + std::to_string(iterations) +
                        " shares do not sum to 100 %");
    if (iterations > 150 && shares.servfail == 0)
      report.fail_check("no SERVFAIL at it-" + std::to_string(iterations));
  }
  const auto ad_share = [&](std::uint16_t iterations) {
    const auto it = s.by_iteration.find(iterations);
    return it == s.by_iteration.end()
               ? -1.0
               : share(it->second.nxdomain_ad, it->second.total);
  };
  for (const std::uint16_t step : {50, 100, 150}) {
    const double below = ad_share(step);
    const double above = ad_share(static_cast<std::uint16_t>(step + 1));
    if (below < 0.0 || above < 0.0 || !(above < below))
      report.fail_check("AD+NXDOMAIN does not step down after it-" +
                        std::to_string(step));
  }
  return failed;
}

std::uint64_t digest(const Outcome& out) {
  analysis::Encoder encoder;
  scanner::encode(encoder, out.stats);
  encoder.u64(out.queries);
  return fnv1a(encoder.data());
}

}  // namespace

Report run_sweep(const RunOptions& options) {
  // default_world_factory's required spec; a domain-less world never reads it.
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = options.seed});
  const std::string prefix = token_prefix(options.seed);
  bool described = false;
  return run_repetitions(options, "sweep", [&](bool traced, Report& report,
                                               LatencyHistogram&,
                                               LayerNumbers& layers) {
    auto out = std::make_unique<Outcome>();
    if (traced) {
      run_traced(prefix, *out);
    } else {
      run_untraced(spec, prefix, *out);
    }
    report.failed += check(*out, report);
    if (!described) {
      described = true;
      std::printf("# sweep: %s panel, %zu members (%llu validators), %llu "
                  "wire queries\n",
                  workload::to_string(kPanel).c_str(), out->members,
                  static_cast<unsigned long long>(out->stats.validators),
                  static_cast<unsigned long long>(out->queries));
    }
    if (traced) {
      const auto queries = static_cast<double>(out->queries);
      layers.wire_queries += queries;
      layers.measured_queries += queries;
      layers.resolver_queries += static_cast<double>(out->resolver_queries);
      layers.cache_hits += static_cast<double>(out->cache_hits);
      layers.upstream_queries += static_cast<double>(out->upstream_queries);
      layers.sha1_blocks += static_cast<double>(out->sink.sha1_blocks);
      layers.sha1_physical_blocks +=
          static_cast<double>(out->sink.sha1_physical_blocks);
      layers.nsec3_hashes += static_cast<double>(out->sink.nsec3_hashes);
      layers.deliveries += static_cast<double>(out->deliveries);
      layers.tcp_queries += static_cast<double>(out->tcp_queries);
      layers.truncations += static_cast<double>(out->truncations);
      layers.virtual_s += out->virtual_s;
      layers.build_rss_mb += out->build_heap_mb;
      layers.measured_allocs += static_cast<double>(out->measured_allocs);
    }
    return Repetition{out->members, digest(*out), out->start_ns,
                      out->setup_end_ns, out->end_ns, out->cpu_s,
                      std::move(out->setup_s)};
  });
}

}  // namespace perfbench
