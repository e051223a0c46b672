#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstdio>

#include "alloc.hpp"
#include "spans.hpp"
#include "zone/chain_memo.hpp"

namespace perfbench {

double heap_in_use_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void cold_chain_memo() { zh::zone::Nsec3ChainMemo::instance().clear(); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {
constexpr int kSubBits = 7;
constexpr std::uint64_t kSub = 1u << kSubBits;
constexpr int kMaxBits = 40;
constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

std::size_t bucket_of(std::uint64_t ns) noexcept {
  ns = std::min<std::uint64_t>(ns, (std::uint64_t{1} << kMaxBits) - 1);
  if (ns < kSub) return ns;
  // ns >> shift lies in [128, 256).
  const int shift = std::bit_width(ns) - 1 - kSubBits;
  return (static_cast<std::size_t>(shift) + 1) * kSub + ((ns >> shift) - kSub);
}
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::add(std::int64_t ns) noexcept {
  ++buckets_[bucket_of(
      static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)))];
  ++count_;
}

double LatencyHistogram::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::min<std::uint64_t>(
      count_ - 1, static_cast<std::uint64_t>(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  while (seen + buckets_[i] <= rank) seen += buckets_[i++];
  if (i < kSub) return (static_cast<double>(i) + 0.5) / 1e3;
  const std::size_t shift = i / kSub - 1;
  const double low = static_cast<double>((kSub + i % kSub) << shift);
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return (low + width / 2.0) / 1e3;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void Report::fail_check(const std::string& what) {
  correct = false;
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

namespace {

/// Samples behind the end-to-end metrics of an untraced run.
struct EndToEnd {
  std::vector<double> setup_s;  // every set-up timed
  std::vector<double> total_s;  // the rest: one per repetition
  std::vector<double> throughput_per_s;
  std::vector<double> units_per_cpu_s;
  std::vector<double> unit_time_us;    // measured wall time per unit
  std::vector<double> latency_p50_us;  // of client requests (serve)
  std::vector<double> latency_p99_us;
  std::uint64_t latency_samples = 0;
};

/// Adds the end-to-end metrics and prints their sample counts.
void add_end_to_end(Report& report, const EndToEnd& samples) {
  std::printf("# repetitions: %zu, set-ups timed: %zu, latency samples: "
              "%llu\n",
              samples.total_s.size(), samples.setup_s.size(),
              static_cast<unsigned long long>(samples.latency_samples));
  report.add("setup_s", median(samples.setup_s), "s");
  report.add("total_s", median(samples.total_s), "s");
  report.add("throughput_per_s", median(samples.throughput_per_s), "units/s");
  report.add("units_per_cpu_s", median(samples.units_per_cpu_s),
             "units/CPU-s");
  // Serve: each repetition's request percentiles, median over repetitions.
  // Scan and sweep keep hundreds of units in flight and have no client that
  // times single requests: there the percentiles are over repetitions' wall
  // time per unit.
  const bool by_request = samples.latency_samples > 0;
  report.add("latency_p50_us",
             by_request ? median(samples.latency_p50_us)
                        : quantile(samples.unit_time_us, 0.50),
             "us");
  report.add("latency_p99_us",
             by_request ? median(samples.latency_p99_us)
                        : quantile(samples.unit_time_us, 0.99),
             "us");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  const double share = report.attempted == 0
                           ? 0.0
                           : static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted);
  std::printf("# error_share = %.6f ratio (%llu of %llu units failed)\n",
              share, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
}

}  // namespace

void add_layer_metrics(Report& report, const LayerNumbers& n) {
  const AllSpanTotals spans = span_totals();
  const auto of = [&](SpanKind kind) -> const SpanTotals& {
    return spans[static_cast<std::size_t>(kind)];
  };
  const double reps = static_cast<double>(std::max<std::uint64_t>(n.reps, 1));
  const auto per_rep_s = [&](std::int64_t ns) {
    return static_cast<double>(ns) / 1e9 / reps;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto per_call = [&](SpanKind kind) {
    return ratio(static_cast<double>(of(kind).allocs),
                 static_cast<double>(of(kind).count));
  };

  report.add("workload.spec_s", per_rep_s(of(SpanKind::kSpec).inclusive_ns),
             "s");
  report.add("workload.install_s",
             per_rep_s(of(SpanKind::kInstall).inclusive_ns), "s");
  report.add("workload.panel_s", per_rep_s(of(SpanKind::kPanel).inclusive_ns),
             "s");
  report.add("workload.warm_s", per_rep_s(of(SpanKind::kWarm).inclusive_ns),
             "s");
  report.add("testbed.build_s", per_rep_s(of(SpanKind::kBuild).inclusive_ns),
             "s");
  report.add("testbed.build_rss_mb", n.build_rss_mb / reps, "MiB");
  report.add("scanner.run_s",
             per_rep_s(of(SpanKind::kScannerRun).inclusive_ns), "s");
  report.add("scanner.self_s", per_rep_s(of(SpanKind::kScannerRun).self_ns),
             "s");
  report.add("scanner.queries_per_unit", ratio(n.wire_queries, n.units),
             "queries/unit");
  report.add("resolver.handle_s",
             per_rep_s(of(SpanKind::kResolver).inclusive_ns), "s");
  report.add("resolver.self_s", per_rep_s(of(SpanKind::kResolver).self_ns),
             "s");
  report.add("resolver.queries", n.resolver_queries / reps, "count");
  report.add("resolver.cache_hit_ratio",
             ratio(n.cache_hits, n.resolver_queries), "ratio");
  report.add("resolver.upstream_per_query",
             ratio(n.upstream_queries, n.resolver_queries), "queries/query");
  report.add("resolver.allocs_per_call", per_call(SpanKind::kResolver),
             "allocs/call");
  report.add("server.handle_s", per_rep_s(of(SpanKind::kServer).inclusive_ns),
             "s");
  report.add("server.queries",
             static_cast<double>(of(SpanKind::kServer).count) / reps, "count");
  report.add("server.zone_materialise", n.zone_materialise / reps, "count");
  report.add("server.chain_memo_hit_ratio",
             ratio(n.chain_memo_hits, n.zone_materialise), "ratio");
  report.add("server.allocs_per_call", per_call(SpanKind::kServer),
             "allocs/call");
  report.add("crypto.sha1_blocks_per_unit", ratio(n.sha1_blocks, n.units),
             "blocks/unit");
  report.add("crypto.sha1_physical_blocks_per_unit",
             ratio(n.sha1_physical_blocks, n.units), "blocks/unit");
  report.add("crypto.nsec3_hashes_per_unit", ratio(n.nsec3_hashes, n.units),
             "hashes/unit");
  report.add("simnet.deliveries_per_unit", ratio(n.deliveries, n.units),
             "deliveries/unit");
  report.add("simnet.tcp_queries", n.tcp_queries / reps, "count");
  report.add("simnet.truncations", n.truncations / reps, "count");
  report.add("simtime.virtual_s", n.virtual_s / reps, "s");
  report.add("dns.allocs_per_query", ratio(n.measured_allocs, n.measured_queries),
             "allocs/query");
  const double dispatch_s = per_rep_s(of(SpanKind::kNetDispatch).inclusive_ns);
  report.add("net.loop_cpu_s", n.loop_cpu_s / reps, "s");
  report.add("net.dispatch_s", dispatch_s, "s");
  report.add("net.self_s", n.loop_cpu_s / reps - dispatch_s, "s");
  report.add("net.tx_bytes_per_query", ratio(n.tx_bytes, n.units), "B/query");
  report.add("net.shed", n.shed / reps, "count");
  report.add("net.truncated", n.truncated / reps, "count");
  report.add("net.allocs_per_dispatch", per_call(SpanKind::kNetDispatch),
             "allocs/call");
  report.add("trace.overhead_share",
             ratio(n.untraced_throughput - n.traced_throughput,
                   n.untraced_throughput),
             "ratio");

  // Self time per span kind, as a share of the set-up or measured phase it
  // belongs to (per traced repetition).
  const auto phase_ns = [&](bool measured) {
    std::int64_t total = 0;
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const auto kind = static_cast<SpanKind>(k);
      const bool root = kind == SpanKind::kScannerRun ||
                        kind == SpanKind::kNetLoop;
      const bool nested = kind == SpanKind::kResolver ||
                          kind == SpanKind::kServer ||
                          kind == SpanKind::kNetDispatch;
      if (measured ? root : !(root || nested)) total += of(kind).inclusive_ns;
    }
    return total;
  };
  const std::int64_t setup_ns = phase_ns(false);
  const std::int64_t measured_ns = phase_ns(true);
  std::printf("# per-layer self time per traced repetition (%llu traced):\n",
              static_cast<unsigned long long>(n.reps));
  std::printf("# %-18s %10s %12s %12s %9s\n", "span", "calls", "inclusive_s",
              "self_s", "share");
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    const SpanTotals& total = of(kind);
    if (total.count == 0) continue;
    const bool setup = kind == SpanKind::kSpec || kind == SpanKind::kInstall ||
                       kind == SpanKind::kPanel || kind == SpanKind::kWarm ||
                       kind == SpanKind::kBuild || kind == SpanKind::kNetStart;
    const std::int64_t phase = setup ? setup_ns : measured_ns;
    std::printf("# %-18s %10.0f %12.6f %12.6f %8.2f%% of %s\n",
                span_name(kind), static_cast<double>(total.count) / reps,
                per_rep_s(total.inclusive_ns), per_rep_s(total.self_ns),
                phase > 0 ? 100.0 * static_cast<double>(total.self_ns) /
                                static_cast<double>(phase)
                          : 0.0,
                setup ? "set-up" : "measured");
  }
}


Report run_repetitions(const RunOptions& options, const char* workload,
                       const RepetitionFn& rep) {
  Report report;
  EndToEnd samples;
  LayerNumbers layers;
  std::vector<double> untraced_throughput, traced_throughput;
  std::vector<double> lengths;
  std::uint64_t first_digest = 0;
  const auto once = [&](bool traced) {
    set_spans_enabled(traced);
    alloc::set_counting(traced);
    LatencyHistogram latency;
    const Repetition r = rep(traced, report, latency, layers);
    set_spans_enabled(false);
    alloc::set_counting(false);

    report.attempted += r.units;
    if (lengths.empty()) {
      first_digest = r.digest;
    } else if (r.digest != first_digest) {
      report.fail_check("artefact digest differs between repetitions");
    }
    lengths.push_back(static_cast<double>(r.end_ns - r.start_ns));
    const double setup_s = seconds_between(r.start_ns, r.setup_end_ns);
    const double run_s = seconds_between(r.setup_end_ns, r.end_ns);
    const double throughput = static_cast<double>(r.units) / run_s;
    std::printf("# %s %s repetition: set-up %.4f s, run %.4f s, %.6g units/s",
                traced ? "traced" : "untraced", workload, setup_s, run_s,
                throughput);
    if (!r.setup_s.empty())
      std::printf(", timed set-ups %.4f s (median of %zu)", median(r.setup_s),
                  r.setup_s.size());
    if (latency.count() > 0)
      std::printf(", p50 %.1f us, p99 %.1f us", latency.percentile_us(0.50),
                  latency.percentile_us(0.99));
    std::printf("\n");
    if (traced) {
      ++layers.reps;
      layers.units += static_cast<double>(r.units);
      traced_throughput.push_back(throughput);
      return;
    }
    untraced_throughput.push_back(throughput);
    if (r.setup_s.empty()) {
      samples.setup_s.push_back(setup_s);
    } else {
      samples.setup_s.insert(samples.setup_s.end(), r.setup_s.begin(),
                             r.setup_s.end());
    }
    samples.total_s.push_back(setup_s + run_s);
    samples.throughput_per_s.push_back(throughput);
    samples.units_per_cpu_s.push_back(static_cast<double>(r.units) / r.cpu_s);
    samples.unit_time_us.push_back(1e6 * run_s /
                                   static_cast<double>(r.units));
    if (latency.count() > 0) {
      samples.latency_p50_us.push_back(latency.percentile_us(0.50));
      samples.latency_p99_us.push_back(latency.percentile_us(0.99));
      samples.latency_samples += latency.count();
    }
  };

  // Untraced runs need three repetitions for a median. Traced runs
  // alternate untraced and traced repetitions, so that host drift during
  // the run does not pass for tracing overhead.
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::size_t min_reps = options.trace ? 2 : 3;
  for (std::size_t done = 0;
       done < min_reps ||
       now_ns() + static_cast<std::int64_t>(median(lengths)) <= until;
       ++done)
    once(options.trace && done % 2 == 1);

  std::printf("# digest %016llx\n",
              static_cast<unsigned long long>(first_digest));
  if (!options.trace) {
    add_end_to_end(report, samples);
    return report;
  }
  layers.untraced_throughput = median(untraced_throughput);
  layers.traced_throughput = median(traced_throughput);
  add_layer_metrics(report, layers);
  if (!write_chrome_trace(options.trace_out))
    report.fail_check("could not write " + options.trace_out);
  return report;
}

}  // namespace perfbench
