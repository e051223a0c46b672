// Shared plumbing for the benchmark driver: clocks, resource usage, the
// metric report, summary statistics and the artefact digest.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// User + system CPU seconds of the whole process.
inline double process_cpu_s() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// CPU seconds of the calling thread.
inline double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident set of the process (ru_maxrss), in MiB.
inline double peak_rss_mib() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Heap bytes the process has in use (malloc arenas + mmapped chunks), in
/// MiB. Unlike the resident set it falls when memory is freed, so deltas
/// stay meaningful after earlier repetitions freed their worlds.
double heap_in_use_mib();

/// Empties the calling thread's NSEC3 chain memo (zone::Nsec3ChainMemo), so
/// that a set-up repeated on one thread signs its zones like the first one
/// in a fresh process or worker thread does, not replays them.
void cold_chain_memo();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// The q-quantile of a sample, interpolated between order statistics (0 for
/// an empty one).
double quantile(std::vector<double> values, double q);

/// Request latencies in a log-linear histogram: exact below 128 ns, then
/// 128 buckets per power of two (at most 0.8 % relative error) up to 2^40 ns.
/// About 35 KB, so it stays out of the peak resident set it sits beside.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(std::int64_t ns) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile (0 ≤ q ≤ 1), nearest rank, as its bucket's midpoint.
  double percentile_us(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// FNV-1a 64 over bytes, chainable through `basis`.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t basis = 0xcbf29ce484222325ull);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run), plus the item counts and checks.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (printed as a `#` line).
  void fail_check(const std::string& what);
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (trace mode only)
};

/// Totals behind the per-layer metrics of a traced run. Times come from the
/// spans; counts are summed over the traced repetitions and reported per
/// repetition or per unit.
struct LayerNumbers {
  std::uint64_t reps = 0;        // traced repetitions
  double units = 0;              // units settled in them
  double wire_queries = 0;       // scanner/prober wire queries in them
  double measured_queries = 0;   // wire queries behind measured_allocs
  double resolver_queries = 0;   // top-level requests the resolvers handled
  double cache_hits = 0;
  double upstream_queries = 0;
  double zone_materialise = 0;
  double chain_memo_hits = 0;
  double sha1_blocks = 0;
  double sha1_physical_blocks = 0;
  double nsec3_hashes = 0;
  double deliveries = 0;
  double tcp_queries = 0;
  double truncations = 0;
  double virtual_s = 0;
  double measured_allocs = 0;    // whole-process operator new, measured phase
  double build_rss_mb = 0;       // summed over reps (per world)
  double loop_cpu_s = 0;         // serve only
  double tx_bytes = 0;
  double shed = 0;
  double truncated = 0;
  double untraced_throughput = 0;  // median units/s, untraced repetitions
  double traced_throughput = 0;    // median units/s, traced repetitions
};

/// Adds every per-layer metric and prints per-layer self time as `#` lines.
void add_layer_metrics(Report& report, const LayerNumbers& numbers);

/// What one repetition reports to run_repetitions.
struct Repetition {
  std::uint64_t units = 0;
  std::uint64_t digest = 0;  // of the repetition's artefact
  std::int64_t start_ns = 0;
  std::int64_t setup_end_ns = 0;  // the first measured unit starts here
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;  // set-up included (scan, sweep: process; serve: loop)
  /// Set-up times (s) for setup_s. Empty: the repetition's own, from start
  /// to setup_end. Sweep and serve time several set-ups per repetition,
  /// since one of theirs lasts milliseconds.
  std::vector<double> setup_s;
};

/// One repetition: runs the workload once (traced or not), checks its
/// outputs into `report` (failed units included), records its client
/// request latencies in `latency` (serve only) and, when traced, adds its
/// counts to `layers`.
using RepetitionFn = std::function<Repetition(
    bool traced, Report& report, LatencyHistogram& latency,
    LayerNumbers& layers)>;

/// The driver of every workload. Repeats `rep` for `seconds` of wall time,
/// predicting from the median repetition length whether one more still
/// fits, with at least three repetitions. In trace mode repetitions
/// alternate untraced and traced (spans and allocation counting on), at
/// least one of each. Checks that every
/// repetition's digest matches the first, then reports the end-to-end
/// metrics (untraced: medians over repetitions; latency percentiles over
/// client requests, or over repetitions' wall time per unit where no client
/// times requests) or the per-layer metrics and Chrome trace (traced).
Report run_repetitions(const RunOptions& options, const char* workload,
                       const RepetitionFn& rep);

/// Per-workload entry points (scan.cpp, sweep.cpp, serve.cpp).
Report run_scan(const RunOptions& options);
Report run_sweep(const RunOptions& options);
Report run_serve(const RunOptions& options);

}  // namespace perfbench
