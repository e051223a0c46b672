// Figure 3 — RCODEs of validating resolvers vs the number of additional
// iterations, for the four panels (open/closed × IPv4/IPv6) of §5.2.
//
// Instantiates calibrated resolver populations, runs the §4.2 probing
// harness (valid/expired validator filter, then the it-N sweep with unique
// query names per resolver), and prints the three series the paper plots:
// NXDOMAIN, NXDOMAIN with AD, and SERVFAIL shares.
#include <chrono>

#include "analysis/export.hpp"
#include "analysis/stats.hpp"
#include "bench_common.hpp"
#include "bench_shards.hpp"

namespace {

void print_panel(const char* title,
                 const zh::scanner::ResolverSweepStats& stats) {
  std::printf("\n%s — %llu probed, %llu validators\n", title,
              static_cast<unsigned long long>(stats.probed),
              static_cast<unsigned long long>(stats.validators));
  std::printf("%8s %12s %14s %12s\n", "add.it.", "NXDOMAIN",
              "AD+NXDOMAIN", "SERVFAIL");
  for (const auto& [iterations, shares] : stats.by_iteration) {
    // Print the probe grid sparsely: every value ≤ 25, then the 25-steps.
    if (iterations > 25 && iterations % 25 != 0 && iterations != 51 &&
        iterations != 101 && iterations != 151)
      continue;
    const double total = static_cast<double>(shares.total);
    std::printf("%8u %11.1f%% %13.1f%% %11.1f%%\n", iterations,
                100.0 * static_cast<double>(shares.nxdomain) / total,
                100.0 * static_cast<double>(shares.nxdomain_ad) / total,
                100.0 * static_cast<double>(shares.servfail) / total);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zh;
  const bench::BenchFlags flags = bench::parse_flags(argc, argv);
  const double rscale = bench::env_double("ZH_RESOLVER_SCALE", 0.01);
  // Figure 3 needs the probe infrastructure only — domains are irrelevant;
  // every worker builds its own domain-less world.
  const workload::EcosystemSpec spec(
      {.scale = 0.00002, .seed = bench::env_u64("ZH_SEED", 42)});
  const auto factory =
      scanner::default_world_factory(spec, /*with_domains=*/false);

  const workload::Panel panels[] = {
      workload::Panel::kOpenV4, workload::Panel::kOpenV6,
      workload::Panel::kClosedV4, workload::Panel::kClosedV6};
  std::uint32_t address_base = 1u << 20;

  for (const auto panel : panels) {
    auto panel_spec = workload::figure3_panel(panel, rscale);
    // --aggressive-nsec: every panel stratum gains the RFC 8198/9520
    // caches — the new sweep axis (ISSUE 9). Off (the default) leaves the
    // panel byte-identical to the golden populations.
    for (auto& entry : panel_spec.entries)
      flags.apply_aggressive(entry.profile);
    scanner::ParallelOptions options{.base_seed = spec.options().seed};
    flags.apply(options);
    const auto start = std::chrono::steady_clock::now();
    const auto result = bench::run_resolver_sweep(
        flags, panel_spec, factory, "f3-" + workload::to_string(panel) + "-",
        address_base, options);
    address_base += 1u << 20;  // keep the panel address plan in worker mode
    if (!result) continue;     // worker mode: artefact written, next panel
    const scanner::ParallelSweepResult& sweep = *result;
    const scanner::ResolverSweepStats& stats = sweep.stats;
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    print_panel(("Figure 3 (" + workload::to_string(panel) +
                 ", resolver scale " + std::to_string(rscale) + ")")
                    .c_str(),
                stats);
    std::printf("# %zu resolvers probed with %llu queries in %.1fs "
                "(--jobs %u)\n",
                sweep.population,
                static_cast<unsigned long long>(sweep.queries_issued), secs,
                sweep.jobs);
    // One trace file per panel (suffixed), since each sweep has its own
    // shard set; the stage breakdown prints per panel too.
    bench::BenchFlags panel_flags = flags;
    if (flags.trace_enabled())
      panel_flags.trace_path += "." + workload::to_string(panel);
    bench::write_trace(panel_flags, sweep.trace);
    bench::print_stage_breakdown(flags, stats.stage_resolve_us,
                                 stats.stage_recurse_us,
                                 stats.stage_validate_us,
                                 stats.stage_queue_wait_us);
    bench::print_aggressive_counters(flags, stats.neg_synth_hits,
                                     stats.failure_cache_hits);

    if (const char* dir = std::getenv("ZH_OUTPUT_DIR")) {
      analysis::Table table(
          {"additional_iterations", "nxdomain", "nxdomain_ad", "servfail"});
      for (const auto& [iterations, shares] : stats.by_iteration) {
        const double total = static_cast<double>(shares.total);
        table.add_row({std::to_string(iterations),
                       std::to_string(shares.nxdomain / total),
                       std::to_string(shares.nxdomain_ad / total),
                       std::to_string(shares.servfail / total)});
      }
      analysis::write_file(dir,
                           "fig3_" + workload::to_string(panel) + ".csv",
                           table.to_csv());
    }
  }

  if (flags.worker_mode()) return 0;  // all four panel artefacts written
  std::printf(
      "\nPaper's qualitative shape to compare against:\n"
      "  - AD+NXDOMAIN steps down at 50 / 100 / 150 additional iterations\n"
      "    (100 is the Google boundary: ~36 %% of open IPv4 validators);\n"
      "  - SERVFAIL jumps at 151 to ~18 %% and stays flat to 500;\n"
      "  - NXDOMAIN ≈ 100 %% - SERVFAIL throughout.\n");
  return 0;
}
