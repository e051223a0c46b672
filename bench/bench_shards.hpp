// Shard dispatch for the campaign benches: the multi-host seam.
//
// One entry point per campaign kind, wrapping the in-process parallel
// engine (`--jobs`) with the two shard roles (bench_common.hpp flags):
//
//   * worker (--shard s --of K --emit-shard BASE): runs its sub-shard
//     in-process, writes the artefact to BASE.c<call>.s<s> and returns
//     nullopt — the bench skips its reporting for that campaign.
//   * merge (--merge-shards FILE...): no scanning at all; decodes and
//     merges previously written artefacts (from any machine).
//
// Start the K workers anywhere (one per host, each at its own --jobs),
// copy their files to one place, then merge: the output is byte-identical
// to the serial and --jobs runs. Worker and merge runs execute the same
// main and therefore the same sequence of dispatch calls; a per-run call
// counter keeps their artefact names and tags ("domain#<n>" /
// "sweep#<n>") aligned without any coordination beyond argv.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/serialize.hpp"
#include "bench_common.hpp"
#include "scanner/serialize.hpp"

namespace zh::bench {
namespace detail {

/// Campaigns issued so far by this run (worker and merge runs execute the
/// same main, so their counters advance in lockstep).
inline unsigned next_call_index() {
  static unsigned calls = 0;
  return calls++;
}

[[noreturn]] inline void die(const std::string& message) {
  std::fprintf(stderr, "bench_shards: %s\n", message.c_str());
  std::exit(1);
}

/// Shard-artefact paths for one campaign: BASE.c<call>.s<shard>.
inline std::string artefact_path(const std::string& base, unsigned call,
                                 unsigned shard) {
  return base + ".c" + std::to_string(call) + ".s" + std::to_string(shard);
}

template <typename Result, typename Artefact, typename RunFn, typename FillFn>
std::optional<Result> dispatch(
    const BenchFlags& flags, const char* kind, RunFn run,
    bool (*merge)(const std::vector<std::string>&, const std::string&,
                  const std::string&, Result&, std::string&),
    FillFn fill) {
  const unsigned call = next_call_index();
  const std::string tag = std::string(kind) + "#" + std::to_string(call);
  std::string error;
  if (flags.merge_mode()) {
    Result out;
    if (!merge(flags.merge_shards, tag, flags.identity(), out, error))
      die(error);
    return out;
  }
  if (flags.worker_mode()) {
    const Result result = run();
    Artefact artefact;
    artefact.tag = tag;
    artefact.identity = flags.identity();
    artefact.shard = flags.shard;
    artefact.of = flags.of;
    artefact.jobs = result.jobs;
    fill(result, artefact);
    const std::string path = artefact_path(flags.emit_shard, call,
                                           flags.shard);
    if (!analysis::write_bytes_file(path, scanner::encode_artefact(artefact)))
      die(path + ": cannot write shard artefact");
    return std::nullopt;
  }
  return run();
}

}  // namespace detail

/// Runs (or merges) one §4.1 domain campaign under the parsed flags.
/// nullopt ⇔ worker mode (the artefact was written; skip reporting).
inline std::optional<scanner::ParallelCampaignResult> run_domain_campaign(
    const BenchFlags& flags, const workload::EcosystemSpec& spec,
    const scanner::ShardWorldFactory& factory,
    const scanner::ParallelOptions& options) {
  return detail::dispatch<scanner::ParallelCampaignResult,
                          scanner::DomainShardArtefact>(
      flags, "domain",
      [&] { return scanner::run_domain_campaign_parallel(spec, factory,
                                                         options); },
      &scanner::merge_domain_shards,
      [](const scanner::ParallelCampaignResult& result,
         scanner::DomainShardArtefact& artefact) {
        artefact.stats = result.stats;
        artefact.records = result.records;
        artefact.queries_issued = result.queries_issued;
        artefact.cost = result.cost;
      });
}

/// Runs (or merges) one §4.2 resolver sweep under the parsed flags.
/// nullopt ⇔ worker mode (the artefact was written; skip reporting).
inline std::optional<scanner::ParallelSweepResult> run_resolver_sweep(
    const BenchFlags& flags, const workload::PanelSpec& panel,
    const scanner::ShardWorldFactory& factory,
    const std::string& token_prefix, std::uint32_t address_base,
    const scanner::ParallelOptions& options) {
  return detail::dispatch<scanner::ParallelSweepResult,
                          scanner::SweepShardArtefact>(
      flags, "sweep",
      [&] {
        return scanner::run_resolver_sweep_parallel(
            panel, factory, token_prefix, address_base, options);
      },
      &scanner::merge_sweep_shards,
      [](const scanner::ParallelSweepResult& result,
         scanner::SweepShardArtefact& artefact) {
        artefact.stats = result.stats;
        artefact.queries_issued = result.queries_issued;
        artefact.population = result.population;
        artefact.cost = result.cost;
      });
}

}  // namespace zh::bench
