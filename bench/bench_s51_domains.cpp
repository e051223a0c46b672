// §5.1 scalar results: domain-population and TLD-census compliance with
// RFC 9276 — the headline numbers of the paper (87.8 % non-compliant, ...).
//
// `--jobs N` shards the domain campaign over N worker threads; the scalar
// output is bit-identical for every N (see scanner/parallel.hpp).
#include <chrono>

#include "analysis/stats.hpp"
#include "bench_common.hpp"
#include "bench_shards.hpp"

int main(int argc, char** argv) {
  using namespace zh;
  const bench::BenchFlags flags = bench::parse_flags(argc, argv);
  auto world = bench::build_world();

  scanner::ParallelOptions options{.base_seed = bench::env_u64("ZH_SEED", 42)};
  flags.apply(options);
  const auto start = std::chrono::steady_clock::now();
  const auto result = bench::run_domain_campaign(
      flags, *world.spec,
      scanner::default_world_factory(*world.spec, /*with_domains=*/true,
                                     flags.scan_profile()),
      options);
  if (!result) return 0;  // worker mode: artefact written (census is
                          // parent-side work — it is not sharded)
  const scanner::ParallelCampaignResult& campaign = *result;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("# campaign: %llu domains in %.1fs (--jobs %u)\n",
              static_cast<unsigned long long>(campaign.stats.scanned), secs,
              campaign.jobs);
  const auto& s = campaign.stats;
  bench::write_trace(flags, campaign.trace);
  bench::print_stage_breakdown(flags, s.stage_resolve_us, s.stage_recurse_us,
                               s.stage_validate_us, s.stage_queue_wait_us);
  bench::print_aggressive_counters(flags, s.neg_synth_hits,
                                   s.failure_cache_hits);

  const double nsec3 = static_cast<double>(s.nsec3);
  analysis::print_comparison(
      "Section 5.1 — registered domains (paper vs measured)",
      {
          {"registered domains", "302 M",
           analysis::format_count(s.scanned) + " (scaled 1:" +
               std::to_string(static_cast<int>(1.0 / world.scale)) + ")"},
          {"DNSSEC-enabled", "26.6 M (8.8 %)",
           analysis::format_count(s.dnssec) + " (" +
               analysis::format_percent(static_cast<double>(s.dnssec) /
                                        static_cast<double>(s.scanned)) +
               ")"},
          {"NSEC3-enabled", "15.5 M (58.9 % of DNSSEC)",
           analysis::format_count(s.nsec3) + " (" +
               analysis::format_percent(static_cast<double>(s.nsec3) /
                                        static_cast<double>(s.dnssec)) +
               ")"},
          {"zero additional iterations (Item 2)", "12.2 %",
           analysis::format_percent(s.zero_iterations / nsec3)},
          {"RFC 9276 non-compliant (iterations)", "87.8 %",
           analysis::format_percent(1.0 - s.zero_iterations / nsec3)},
          {"no salt (Item 3)", "8.6 %",
           analysis::format_percent(s.no_salt / nsec3)},
          {"opt-out set (Item 4)", "6.4 % (994 K)",
           analysis::format_percent(s.opt_out / nsec3) + " (" +
               analysis::format_count(s.opt_out) + ")"},
          {"> 150 iterations", "43",
           std::to_string(s.over_150_iterations)},
          {"at 500 iterations (max)", "12",
           std::to_string(s.at_500_iterations)},
          {"salt > 45 B", "170", std::to_string(s.salt_over_45)},
          {"salt at 160 B", "9", std::to_string(s.salt_at_160)},
      });

  const auto tld = scanner::scan_tlds(*world.internet, *world.spec,
                                      world.scan_resolver->address());
  analysis::print_comparison(
      "Section 5.1 — TLD census (paper vs measured; census not scaled)",
      {
          {"TLDs analyzed", "1,449", std::to_string(tld.scanned)},
          {"DNSSEC-enabled TLDs", "1,354", std::to_string(tld.dnssec)},
          {"NSEC3-enabled TLDs", "1,302", std::to_string(tld.nsec3)},
          {"NSEC3 share of DNSSEC TLDs", "96.2 %",
           analysis::format_percent(static_cast<double>(tld.nsec3) /
                                    static_cast<double>(tld.dnssec))},
          {"TLDs with 0 iterations", "688",
           std::to_string(tld.zero_iterations)},
          {"TLDs with 100 iterations (Identity Digital)", "447",
           std::to_string(tld.at_100_iterations)},
          {"TLDs without salt", "672", std::to_string(tld.no_salt)},
          {"TLDs with 8-byte salt", "558", std::to_string(tld.salt_8)},
          {"TLDs with 10-byte salt (max)", "7", std::to_string(tld.salt_10)},
          {"TLDs with opt-out (Item 5)", "85.4 %",
           analysis::format_percent(static_cast<double>(tld.opt_out) /
                                    static_cast<double>(tld.nsec3))},
          {"TLD non-compliance", "47.2 %",
           analysis::format_percent(
               1.0 - static_cast<double>(tld.zero_iterations) /
                         static_cast<double>(tld.nsec3))},
      });
  return 0;
}
