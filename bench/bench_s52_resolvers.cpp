// §5.2 scalar results: validator counts, Item 6/8 adoption, threshold
// distribution, Item 7 violations, Item 12 gaps and EDE support.
//
// `--jobs N` shards each panel's probing sweep over N worker threads; the
// output is bit-identical for every N (see scanner/parallel.hpp).
#include "analysis/stats.hpp"
#include "bench_common.hpp"
#include "bench_shards.hpp"

int main(int argc, char** argv) {
  using namespace zh;
  const bench::BenchFlags flags = bench::parse_flags(argc, argv);
  const double rscale = bench::env_double("ZH_RESOLVER_SCALE", 0.01);
  // Probe infrastructure only; each worker thread builds its own world.
  const workload::EcosystemSpec spec(
      {.scale = 0.00002, .seed = bench::env_u64("ZH_SEED", 42)});
  const auto factory =
      scanner::default_world_factory(spec, /*with_domains=*/false);

  scanner::ResolverSweepStats all;
  std::uint64_t validators_by_panel[4] = {};
  std::uint32_t address_base = 1u << 20;
  const workload::Panel panels[] = {
      workload::Panel::kOpenV4, workload::Panel::kOpenV6,
      workload::Panel::kClosedV4, workload::Panel::kClosedV6};
  for (int p = 0; p < 4; ++p) {
    auto panel_spec = workload::figure3_panel(panels[p], rscale);
    // --aggressive-nsec: the ISSUE 9 sweep axis (no-op when off, keeping
    // the golden populations untouched).
    for (auto& entry : panel_spec.entries)
      flags.apply_aggressive(entry.profile);
    scanner::ParallelOptions options{.base_seed = spec.options().seed};
    flags.apply(options);
    const auto result = bench::run_resolver_sweep(
        flags, panel_spec, factory,
        "s52-" + workload::to_string(panels[p]) + "-", address_base, options);
    address_base += 1u << 20;  // keep the panel address plan in worker mode
    if (!result) continue;     // worker mode: artefact written, next panel
    const scanner::ParallelSweepResult& sweep = *result;
    all.merge(sweep.stats);
    validators_by_panel[p] = sweep.stats.validators;
    // One trace file per panel (suffixed) — each sweep has its own shards.
    bench::BenchFlags panel_flags = flags;
    if (flags.trace_enabled())
      panel_flags.trace_path += "." + workload::to_string(panels[p]);
    bench::write_trace(panel_flags, sweep.trace);
  }
  if (flags.worker_mode()) return 0;  // all four panel artefacts written
  bench::print_stage_breakdown(flags, all.stage_resolve_us,
                               all.stage_recurse_us, all.stage_validate_us,
                               all.stage_queue_wait_us);
  bench::print_aggressive_counters(flags, all.neg_synth_hits,
                                   all.failure_cache_hits);

  const double v = static_cast<double>(all.validators);
  const auto limit_count = [&](const std::map<std::uint16_t, std::uint64_t>&
                                   hist,
                               std::uint16_t limit) -> std::uint64_t {
    const auto it = hist.find(limit);
    return it == hist.end() ? 0 : it->second;
  };
  const std::uint64_t insecure150 = limit_count(all.insecure_limits, 150);
  const std::uint64_t insecure100 = limit_count(all.insecure_limits, 100);
  const std::uint64_t insecure50 = limit_count(all.insecure_limits, 50);

  analysis::print_comparison(
      "Section 5.2 — validating resolvers (paper vs measured; resolver "
      "scale " + std::to_string(rscale) + ")",
      {
          {"open IPv4 validators", "105.2 K",
           analysis::format_count(validators_by_panel[0])},
          {"open IPv6 validators", "6.8 K",
           analysis::format_count(validators_by_panel[1])},
          {"closed IPv4 validators", "1,236",
           std::to_string(validators_by_panel[2])},
          {"closed IPv6 validators", "689",
           std::to_string(validators_by_panel[3])},
          {"limit iterations (Items 6 or 8)", "78.3 %",
           analysis::format_percent(
               static_cast<double>(all.item6 + all.item8) / v)},
          {"insecure above a limit (Item 6)", "59.9 %",
           analysis::format_percent(static_cast<double>(all.item6) / v)},
          {"SERVFAIL above a limit (Item 8)", "18.4 %",
           analysis::format_percent(static_cast<double>(all.item8) / v)},
          {"insecure limit at 150 vs 50", "12.5x more at 150",
           std::to_string(insecure150) + " vs " + std::to_string(insecure50) +
               (insecure50
                    ? " (" +
                          std::to_string(static_cast<double>(insecure150) /
                                         static_cast<double>(insecure50))
                              .substr(0, 4) +
                          "x)"
                    : "")},
          {"insecure limit at 100 (Google-like)",
           "36.4 % of open IPv4 validators",
           std::to_string(insecure100) + " across all panels"},
          {"SERVFAIL from it-1 (limit 0)", "418 resolvers",
           std::to_string(limit_count(all.servfail_limits, 0)) +
               " (scaled)"},
          {"SERVFAIL from it-101 (limit 100)", "92 resolvers",
           std::to_string(limit_count(all.servfail_limits, 100)) +
               " (scaled)"},
          {"Item 7 violations", "0.2 %",
           analysis::format_percent(
               static_cast<double>(all.item7_violations) / v, 2)},
          {"Item 12 gap (insecure<servfail)", "4.3 % (mostly flaky)",
           analysis::format_percent(static_cast<double>(all.item12_gaps) / v,
                                    2)},
          {"EDE attached to limited responses", "< 18 % of open resolvers",
           analysis::format_percent(
               static_cast<double>(all.ede_on_limit) /
               static_cast<double>(all.item6 + all.item8))},
      });
  std::printf(
      "\nNote: absolute counts scale with ZH_RESOLVER_SCALE; percentages are "
      "scale-invariant (and --jobs-invariant; ran with --jobs %u).\n",
      flags.jobs);
  return 0;
}
