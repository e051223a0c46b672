// Scan-engine throughput: how far overlapping waits carry, one core.
//
// The engine's claim is ZDNS-shaped: one worker thread multiplexing
// thousands of per-query state machines over a wake-up heap sustains a far
// higher *simulated* scan rate than the serial schedule (a window of one),
// where every wait — RTTs under the latency model, retransmission timeouts
// — serializes behind every other item's. Every window produces
// byte-identical campaign artefacts (tests/test_async_engine.cpp), so this
// bench measures pure throughput on one worker:
//
//   * virtual throughput — campaign queries (and domains) per simulated
//     second, from admission to the last settlement. This is the ZDNS
//     number; wide windows win by overlapping items' waits.
//   * wall throughput — domains per host-CPU second, which pins the
//     engine's bookkeeping overhead (heap, state machines, flow resumes).
//
// Emits BENCH_throughput.json (CI uploads it as an artifact) with one row
// per max-inflight cell, plus the headline speedup: max-inflight 1024 must
// clear >= 5x the serial schedule's virtual queries/sec (exit 3 otherwise).
//
// Flags (bench_common.hpp): --latency/--jitter reshape the link (default
// 20 ms +/- 5 ms), --loss adds retransmission waits, --retries/--timeout
// shape the client policy. ZH_LIMIT caps the domains scanned per cell
// (default 2000); ZH_SCALE must supply at least that many.
//
// Each cell also reports allocs/query (counting operator-new hook,
// bench_alloc.hpp): heap allocations during the measured scan divided by
// wire queries issued. The count covers the whole stack, most of it the
// resolver/server machinery behind each exchange, so it is flat across
// windows rather than zero.
#define ZH_BENCH_COUNT_ALLOCS
#include "bench_alloc.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scanner/campaign.hpp"

namespace {

struct Cell {
  const char* engine;
  std::size_t max_inflight;
  std::uint64_t domains = 0;
  std::uint64_t queries = 0;
  std::uint64_t allocations = 0;  // operator-new calls in the measured scan
  double virtual_seconds = 0.0;
  double wall_seconds = 0.0;

  double allocs_per_query() const {
    return queries > 0
               ? static_cast<double>(allocations) / static_cast<double>(queries)
               : 0.0;
  }

  double per_virtual(std::uint64_t n) const {
    return virtual_seconds > 0.0 ? static_cast<double>(n) / virtual_seconds
                                 : 0.0;
  }
  double per_wall(std::uint64_t n) const {
    return wall_seconds > 0.0 ? static_cast<double>(n) / wall_seconds : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace zh;
  bench::BenchFlags flags = bench::parse_flags(argc, argv);
  // Throughput is about overlapping waits: default to a realistic link so
  // the virtual clock genuinely moves (matching bench_latency_timeout).
  if (flags.latency_ms <= 0.0 && flags.jitter_ms <= 0.0) {
    flags.latency_ms = 20.0;
    flags.jitter_ms = 5.0;
  }
  const std::uint64_t seed = bench::env_u64("ZH_SEED", 42);
  const std::size_t limit =
      static_cast<std::size_t>(bench::env_u64("ZH_LIMIT", 2000));

  const std::size_t windows[] = {1, 64, 1024, 8192};
  std::vector<Cell> cells;
  for (const std::size_t window : windows) cells.push_back({"async", window});

  std::printf("# one worker thread, %zu domains per cell, link %.0f ms ± "
              "%.0f ms, service 1 µs/SHA-1 block, loss %.0f%%, retry %u "
              "attempts\n",
              limit, flags.latency_ms, flags.jitter_ms, 100.0 * flags.loss,
              flags.retry.attempts);
  std::printf("%9s %12s %9s %10s %13s %13s %12s %9s\n", "engine",
              "max-inflight", "domains", "virt (s)", "dom/virt-s", "q/virt-s",
              "dom/wall-s", "allocs/q");

  for (Cell& cell : cells) {
    // A fresh world per cell: every window starts from the same cold
    // resolver caches and a zeroed virtual clock.
    bench::World world = bench::build_world();
    simnet::Network& network = world.internet->network();
    network.set_latency_model(flags.latency_model(seed));
    network.set_service_model(
        {.per_sha1_block = simtime::Duration::from_us(1)});
    if (flags.loss > 0.0) network.set_loss(flags.loss, seed);

    scanner::DomainCampaign campaign(*world.internet, *world.spec,
                                     world.scan_resolver->address(),
                                     simnet::IpAddress::v4(198, 18, 0, 1),
                                     flags.retry);
    // Warm the TLD/operator caches outside the measured window (a limit-0
    // run performs exactly the warm-up and scans nothing): the warm phase
    // is a serial one-off identical in every cell, and folding its ~one
    // exchange per TLD into the makespan would just Amdahl-cap the
    // comparison at the warm/scan ratio instead of measuring the windows.
    campaign.run_shard(0, 1, /*limit=*/0);
    const simtime::Duration virtual_start = network.clock().now();
    const auto wall_start = std::chrono::steady_clock::now();
    const zh::bench::AllocStats allocs_before = zh::bench::alloc_stats();
    campaign.run_shard(0, 1, limit, /*stride=*/1, cell.max_inflight);
    cell.allocations =
        zh::bench::alloc_stats().allocations - allocs_before.allocations;
    cell.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    // The engine leaves the clock at the last settlement, so clock-now
    // minus start is the makespan: serial at a window of one, overlapped
    // above it.
    cell.virtual_seconds =
        static_cast<double>((network.clock().now() - virtual_start).nanos()) /
        1e9;
    cell.domains = campaign.stats().scanned;
    cell.queries = campaign.queries_issued();

    std::printf("%9s %12zu %9llu %10.2f %13.1f %13.1f %12.1f %9.1f\n",
                cell.engine, cell.max_inflight,
                static_cast<unsigned long long>(cell.domains),
                cell.virtual_seconds, cell.per_virtual(cell.domains),
                cell.per_virtual(cell.queries), cell.per_wall(cell.domains),
                cell.allocs_per_query());
  }

  const Cell& serial = cells.front();
  const Cell* async_1024 = nullptr;
  for (const Cell& cell : cells)
    if (cell.max_inflight == 1024) async_1024 = &cell;
  const double speedup =
      async_1024 && serial.per_virtual(serial.queries) > 0.0
          ? async_1024->per_virtual(async_1024->queries) /
                serial.per_virtual(serial.queries)
          : 0.0;
  std::printf("# async@1024 virtual queries/sec speedup over async@1: "
              "%.1fx (acceptance floor 5x)\n",
              speedup);

  const char* out_path = std::getenv("ZH_OUT");
  if (!out_path || !*out_path) out_path = "BENCH_throughput.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (!out) {
    std::fprintf(stderr, "FAILED writing %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(out, "  \"limit\": %zu,\n  \"latency_ms\": %g,\n"
               "  \"jitter_ms\": %g,\n  \"loss\": %g,\n  \"retries\": %u,\n",
               limit, flags.latency_ms, flags.jitter_ms, flags.loss,
               flags.retry.attempts);
  std::fprintf(out, "  \"speedup_async1024_vs_async1\": %.3f,\n", speedup);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(
        out,
        "    {\"engine\": \"%s\", \"max_inflight\": %zu, "
        "\"domains\": %llu, \"queries\": %llu, "
        "\"virtual_seconds\": %.6f, \"wall_seconds\": %.3f, "
        "\"domains_per_virtual_sec\": %.3f, "
        "\"queries_per_virtual_sec\": %.3f, "
        "\"domains_per_wall_sec\": %.3f, "
        "\"queries_per_wall_sec\": %.3f, "
        "\"allocations\": %llu, "
        "\"allocs_per_query\": %.3f}%s\n",
        cell.engine, cell.max_inflight,
        static_cast<unsigned long long>(cell.domains),
        static_cast<unsigned long long>(cell.queries), cell.virtual_seconds,
        cell.wall_seconds, cell.per_virtual(cell.domains),
        cell.per_virtual(cell.queries), cell.per_wall(cell.domains),
        cell.per_wall(cell.queries),
        static_cast<unsigned long long>(cell.allocations),
        cell.allocs_per_query(), i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("# written %s\n", out_path);
  return speedup >= 5.0 ? 0 : 3;
}
