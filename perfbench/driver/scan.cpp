// `scan`: the §5.1 domain campaign, end to end. Each repetition builds the
// EcosystemSpec, lets run_domain_campaign_parallel build one world per
// worker (probe infrastructure + install_ecosystem + Internet::build) and
// scans every domain with the async engine over a 20 ± 5 ms link.
//
// The run seed draws the link jitter; the ecosystem draw stays fixed. At
// this scale the draw moves the work per domain by far more than the
// run-to-run spread the benchmark must resolve (seed 1 scans 17 % slower
// than seed 10, run after run), while the jitter moves only the order in
// which the async engine settles domains.
//
// Unit: one domain. Set-up ends when the last worker's world is ready.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>

#include "alloc.hpp"
#include "analysis/serialize.hpp"
#include "common.hpp"
#include "scanner/parallel.hpp"
#include "scanner/serialize.hpp"
#include "shims.hpp"
#include "spans.hpp"
#include "workload/install.hpp"

namespace perfbench {
namespace {

using namespace zh;

/// ≈ 30 K domains (302 M × scale, plus the planted long-tail specials): a
/// repetition takes about two seconds, so a run holds enough of them for
/// its medians to ride out host noise.
constexpr double kScale = 0.0001;
constexpr unsigned kJobs = 2;
/// The ecosystem seed every bench uses by default (ZH_SEED).
constexpr std::uint64_t kEcosystemSeed = 42;

/// Band for the share of NSEC3 domains with non-zero iterations: the
/// paper's 87.8 %, lifted by the 213 planted tail domains (all non-zero) to
/// about 89 % among the ≈ 1.8 K NSEC3 domains at this scale, ± 4 standard
/// errors of the seeded draw.
constexpr double kNonCompliantLow = 0.86;
constexpr double kNonCompliantHigh = 0.925;

struct Worker {
  ShimSink sink;
  std::int64_t ready_ns = 0;
  std::uint64_t allocs_at_ready = 0;
  WindowSpan window;
};

struct Outcome {
  scanner::ParallelCampaignResult result;
  std::size_t domains = 0;
  std::int64_t start_ns = 0;
  std::int64_t setup_end_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;
  double setup_heap_mb = 0.0;  // per worker world, once every world is built
  std::array<Worker, kJobs> workers;
};

void run_once(std::uint64_t seed, bool traced, Outcome& out) {
  out.start_ns = now_ns();
  const double cpu_start = process_cpu_s();
  const double heap_start = traced ? heap_in_use_mib() : 0.0;
  std::unique_ptr<workload::EcosystemSpec> spec;
  {
    const ScopedSpan span(SpanKind::kSpec);
    spec = std::make_unique<workload::EcosystemSpec>(
        workload::EcosystemSpec::Options{.scale = kScale,
                                         .seed = kEcosystemSeed});
  }
  out.domains = spec->domain_count();
  std::atomic<unsigned> worlds_ready{0};
  const scanner::ShardWorldFactory factory = [&](unsigned shard, unsigned) {
    Worker& worker = out.workers[shard];
    scanner::ShardWorld world;
    world.internet = std::make_unique<testbed::Internet>();
    {
      const ScopedSpan span(SpanKind::kInstall);
      world.probe_zones = testbed::add_probe_infrastructure(*world.internet);
      workload::install_ecosystem(*world.internet, *spec);
    }
    {
      const ScopedSpan span(SpanKind::kBuild);
      world.internet->build();
    }
    world.scan_resolver = world.internet->make_resolver(
        resolver::ResolverProfile::cloudflare(),
        simnet::IpAddress::v4(1, 1, 1, 1));
    if (traced) {
      attach_resolver_shim(world.internet->network(), *world.scan_resolver,
                           worker.sink);
      worker.sink.snapshot_resolver = world.scan_resolver.get();
      attach_server_shims(*world.internet);
      if (worlds_ready.fetch_add(1) + 1 == kJobs)
        out.setup_heap_mb = (heap_in_use_mib() - heap_start) / kJobs;
      worker.allocs_at_ready = alloc::thread_count();
      worker.window = WindowSpan::open(SpanKind::kScannerRun);
    }
    worker.ready_ns = now_ns();
    return world;
  };

  scanner::ParallelOptions options;
  options.jobs = kJobs;
  options.engine = scanner::Engine::kAsync;
  options.max_inflight = 1024;
  options.base_seed = seed;
  options.latency = simtime::LatencyModel(simtime::Duration::from_ms(20),
                                          simtime::Duration::from_ms(5), seed);
  out.result = scanner::run_domain_campaign_parallel(*spec, factory, options);
  out.end_ns = now_ns();
  out.cpu_s = process_cpu_s() - cpu_start;
  for (Worker& worker : out.workers) {
    out.setup_end_ns = std::max(out.setup_end_ns, worker.ready_ns);
    worker.window.close(worker.sink.last_end_ns);
  }
}

/// Output checks: every domain settles, and the §5.1 headline shares and
/// planted tail counts come out as the paper reports them. Returns the
/// items that failed; band misses mark the report incorrect.
std::uint64_t check(const Outcome& out, Report& report) {
  const scanner::DomainCampaignStats& s = out.result.stats;
  std::uint64_t unsettled = out.domains > s.scanned ? out.domains - s.scanned
                                                    : 0;
  for (const scanner::CompactDomainRecord& record : out.result.records) {
    if (record.classification ==
        scanner::DomainScanResult::Class::kUnresponsive)
      ++unsettled;
  }
  if (unsettled > 0)
    report.fail_check(std::to_string(unsettled) + " domains did not settle");
  if (s.timeouts > 0)
    report.fail_check(std::to_string(s.timeouts) + " scanner timeouts");
  const double non_compliant =
      s.nsec3 == 0 ? 0.0
                   : 1.0 - static_cast<double>(s.zero_iterations) /
                               static_cast<double>(s.nsec3);
  if (non_compliant < kNonCompliantLow || non_compliant > kNonCompliantHigh)
    report.fail_check("non-compliance share " + std::to_string(non_compliant) +
                      " outside the paper band");
  const auto exact = [&](const char* what, std::uint64_t got,
                         std::uint64_t want) {
    if (got != want)
      report.fail_check(std::string(what) + " = " + std::to_string(got) +
                        ", paper " + std::to_string(want));
  };
  exact("domains > 150 iterations", s.over_150_iterations, 43);
  exact("domains at 500 iterations", s.at_500_iterations, 12);
  exact("domains with salt > 45 B", s.salt_over_45, 170);
  exact("domains with salt at 160 B", s.salt_at_160, 9);
  return unsettled;
}

std::uint64_t digest(const scanner::ParallelCampaignResult& result) {
  analysis::Encoder encoder;
  scanner::encode(encoder, result.stats);
  scanner::encode(encoder, result.records);
  encoder.u64(result.queries_issued);
  return fnv1a(encoder.data());
}

}  // namespace

Report run_scan(const RunOptions& options) {
  bool described = false;
  return run_repetitions(options, "scan", [&](bool traced, Report& report,
                                              LatencyHistogram&,
                                              LayerNumbers& layers) {
    auto out = std::make_unique<Outcome>();
    run_once(options.seed, traced, *out);
    report.failed += check(*out, report);
    if (!described) {
      described = true;
      std::printf("# scan: %zu domains, %u workers, %llu wire queries\n",
                  out->domains, kJobs,
                  static_cast<unsigned long long>(out->result.queries_issued));
    }
    if (traced) {
      const trace::Collector& collector = out->result.trace;
      const auto queries = static_cast<double>(out->result.queries_issued);
      layers.wire_queries += queries;
      layers.measured_queries += queries;
      layers.zone_materialise +=
          static_cast<double>(collector.metric("server.zone_materialise"));
      layers.chain_memo_hits +=
          static_cast<double>(collector.metric("server.chain_memo_hit"));
      layers.build_rss_mb += out->setup_heap_mb;
      double virtual_s = 0.0;
      for (const Worker& worker : out->workers) {
        const ShimSink& sink = worker.sink;
        layers.resolver_queries +=
            static_cast<double>(sink.resolver_stats.queries_handled);
        layers.cache_hits +=
            static_cast<double>(sink.resolver_stats.cache_hits);
        layers.upstream_queries +=
            static_cast<double>(sink.resolver_stats.upstream_queries);
        layers.sha1_blocks += static_cast<double>(sink.sha1_blocks);
        layers.sha1_physical_blocks +=
            static_cast<double>(sink.sha1_physical_blocks);
        layers.nsec3_hashes += static_cast<double>(sink.nsec3_hashes);
        layers.deliveries += static_cast<double>(sink.deliveries);
        layers.tcp_queries += static_cast<double>(sink.tcp_queries);
        layers.truncations += static_cast<double>(sink.truncations);
        layers.measured_allocs += static_cast<double>(
            sink.allocs_at_last_end - worker.allocs_at_ready);
        virtual_s =
            std::max(virtual_s, static_cast<double>(sink.virtual_ns) / 1e9);
      }
      layers.virtual_s += virtual_s;
    }
    return Repetition{out->domains, digest(out->result), out->start_ns,
                      out->setup_end_ns, out->end_ns, out->cpu_s, {}};
  });
}

}  // namespace perfbench
