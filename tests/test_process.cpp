// End-to-end tests for the multi-host seam (scanner/serialize.hpp): the K
// sub-shards of a campaign, each run through the normal parallel engine
// and written to its own artefact file, must merge back to results
// *byte-identical* to the serial and the in-process --jobs runs.
//
// The sub-shards run in this process, one after another, exactly as K
// hosts would run `--shard s --of K --emit-shard BASE`. Each uses jobs=2
// internally, so every K also exercises the shard×thread residue
// composition (K shards × 2 threads ≡ one run at --jobs 2K).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/serialize.hpp"
#include "scanner/serialize.hpp"
#include "shard_dir.hpp"
#include "workload/install.hpp"
#include "workload/resolver_population.hpp"

namespace zh::scanner {
namespace {

/// Threads per sub-shard: >1 so sub-sharding composes with thread
/// sharding in every test.
constexpr unsigned kWorkerJobs = 2;

workload::EcosystemSpec test_spec() {
  return workload::EcosystemSpec({.scale = 0.00002, .seed = 42});
}

workload::PanelSpec test_panel() {
  using resolver::ResolverProfile;
  workload::PanelSpec panel;
  panel.panel = workload::Panel::kOpenV4;
  panel.validator_count = 18;
  panel.non_validator_count = 4;
  panel.entries = {
      {ResolverProfile::bind9_2021(), 0.4, ""},
      {ResolverProfile::google_public_dns(), 0.25, ""},
      {ResolverProfile::cloudflare(), 0.2, ""},
      {ResolverProfile::strict_zero(), 0.1, ""},
      {ResolverProfile::item12_gap(), 0.05, ""},
  };
  return panel;
}

ParallelOptions run_options(unsigned jobs, unsigned shard, unsigned of) {
  ParallelOptions options{.jobs = jobs, .base_seed = 42};
  options.shard_index = shard;
  options.shard_count = of;
  return options;
}

ParallelCampaignResult run_domain(unsigned jobs, unsigned shard = 0,
                                  unsigned of = 1) {
  const workload::EcosystemSpec spec = test_spec();
  return run_domain_campaign_parallel(spec, default_world_factory(spec),
                                      run_options(jobs, shard, of));
}

ParallelSweepResult run_sweep(unsigned jobs, unsigned shard = 0,
                              unsigned of = 1) {
  const workload::EcosystemSpec spec = test_spec();
  return run_resolver_sweep_parallel(
      test_panel(), default_world_factory(spec, /*with_domains=*/false),
      "tproc-", 1u << 21, run_options(jobs, shard, of));
}

/// Canonical bytes of a campaign result, normalised to a fixed envelope so
/// serial / --jobs K / K merged shard results can be compared
/// byte-for-byte. The hash-work tally is zeroed: every worker signs its
/// own world, so cost scales with the worker count by design — it is
/// mode-equal (K shards ≡ --jobs K·J in-process, asserted separately
/// below), not jobs-invariant like the statistics.
std::vector<std::uint8_t> canonical_bytes(
    const ParallelCampaignResult& result) {
  DomainShardArtefact artefact;
  artefact.tag = "canon";
  artefact.shard = 0;
  artefact.of = 1;
  artefact.jobs = 1;  // deliberately NOT result.jobs: jobs must not matter
  artefact.stats = result.stats;
  artefact.records = result.records;
  artefact.queries_issued = result.queries_issued;
  return encode_artefact(artefact);
}

std::vector<std::uint8_t> canonical_bytes(const ParallelSweepResult& result) {
  SweepShardArtefact artefact;
  artefact.tag = "canon";
  artefact.shard = 0;
  artefact.of = 1;
  artefact.jobs = 1;
  artefact.stats = result.stats;
  artefact.queries_issued = result.queries_issued;
  artefact.population = result.population;
  return encode_artefact(artefact);
}

void expect_same_cost(const CostTally& a, const CostTally& b) {
  EXPECT_EQ(a.sha1_blocks, b.sha1_blocks);
  EXPECT_EQ(a.sha2_blocks, b.sha2_blocks);
  EXPECT_EQ(a.nsec3_hashes, b.nsec3_hashes);
}

/// Runs the `of` sub-shards of the test campaign at kWorkerJobs each and
/// writes every artefact to its own file in `dir` — the files `of` hosts
/// would emit. Returns their paths, in shard order.
std::vector<std::string> emit_domain_shards(unsigned of, const ShardDir& dir) {
  std::vector<std::string> paths;
  for (unsigned shard = 0; shard < of; ++shard) {
    const ParallelCampaignResult result = run_domain(kWorkerJobs, shard, of);
    DomainShardArtefact artefact;
    artefact.tag = "t";
    artefact.shard = shard;
    artefact.of = of;
    artefact.jobs = result.jobs;
    artefact.stats = result.stats;
    artefact.records = result.records;
    artefact.queries_issued = result.queries_issued;
    artefact.cost = result.cost;
    paths.push_back(dir.write("domain.s" + std::to_string(shard),
                              encode_artefact(artefact)));
    EXPECT_FALSE(paths.back().empty()) << dir.path();
  }
  return paths;
}

std::vector<std::string> emit_sweep_shards(unsigned of, const ShardDir& dir) {
  std::vector<std::string> paths;
  for (unsigned shard = 0; shard < of; ++shard) {
    const ParallelSweepResult result = run_sweep(kWorkerJobs, shard, of);
    SweepShardArtefact artefact;
    artefact.tag = "t";
    artefact.shard = shard;
    artefact.of = of;
    artefact.jobs = result.jobs;
    artefact.stats = result.stats;
    artefact.queries_issued = result.queries_issued;
    artefact.population = result.population;
    artefact.cost = result.cost;
    paths.push_back(dir.write("sweep.s" + std::to_string(shard),
                              encode_artefact(artefact)));
    EXPECT_FALSE(paths.back().empty()) << dir.path();
  }
  return paths;
}

TEST(ProcessCampaign, KProcessCampaignMatchesInProcess) {
  const ParallelCampaignResult serial = run_domain(1);
  ASSERT_GT(serial.stats.scanned, 0u);
  const std::vector<std::uint8_t> want = canonical_bytes(serial);

  for (const unsigned of : {1u, 2u, 4u}) {
    SCOPED_TRACE(of);
    // In-process equivalent of the same global partition.
    const ParallelCampaignResult in_process = run_domain(of * kWorkerJobs);
    EXPECT_EQ(canonical_bytes(in_process), want);

    const ShardDir dir;
    ASSERT_FALSE(dir.path().empty());
    const std::vector<std::string> paths = emit_domain_shards(of, dir);
    ParallelCampaignResult merged;
    std::string error;
    ASSERT_TRUE(merge_domain_shards(paths, "t", "", merged, error)) << error;
    EXPECT_EQ(merged.jobs, of * kWorkerJobs);
    EXPECT_EQ(canonical_bytes(merged), want);
    // Hash-work cost is per-worker-world, so it matches the in-process run
    // with the same global worker count (not the serial run).
    expect_same_cost(merged.cost, in_process.cost);
  }
}

TEST(ProcessCampaign, KProcessSweepMatchesInProcess) {
  const ParallelSweepResult serial = run_sweep(1);
  ASSERT_EQ(serial.stats.probed, 22u);
  const std::vector<std::uint8_t> want = canonical_bytes(serial);

  for (const unsigned of : {1u, 2u, 4u}) {
    SCOPED_TRACE(of);
    const ParallelSweepResult in_process = run_sweep(of * kWorkerJobs);
    EXPECT_EQ(canonical_bytes(in_process), want);

    const ShardDir dir;
    ASSERT_FALSE(dir.path().empty());
    const std::vector<std::string> paths = emit_sweep_shards(of, dir);
    ParallelSweepResult merged;
    std::string error;
    ASSERT_TRUE(merge_sweep_shards(paths, "t", "", merged, error)) << error;
    EXPECT_EQ(merged.population, serial.population);
    EXPECT_EQ(canonical_bytes(merged), want);
    expect_same_cost(merged.cost, in_process.cost);
  }
}

TEST(ProcessCampaign, SubShardOptionsPartitionTheCampaign) {
  // Directly via ParallelOptions (no artefact files): the 3 sub-shards of
  // a 3-way split, each itself running 2 threads, merge back to the serial
  // run.
  const ParallelCampaignResult serial = run_domain(1);
  DomainCampaignStats merged_stats;
  std::vector<CompactDomainRecord> records;
  std::uint64_t queries = 0;
  for (unsigned shard = 0; shard < 3; ++shard) {
    const ParallelCampaignResult part = run_domain(kWorkerJobs, shard, 3);
    merged_stats.merge(part.stats);
    records.insert(records.end(), part.records.begin(), part.records.end());
    queries += part.queries_issued;
  }
  std::sort(records.begin(), records.end(),
            [](const CompactDomainRecord& a, const CompactDomainRecord& b) {
              return a.index < b.index;
            });
  EXPECT_EQ(merged_stats.scanned, serial.stats.scanned);
  EXPECT_EQ(queries, serial.queries_issued);
  ASSERT_EQ(records.size(), serial.records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].index, serial.records[i].index) << i;
}

// Shards emitted under different configurations never merge: a scale
// 0.0001 shard beside a scale 0.0002, seed 7 shard (which used to merge
// into a Fig. 1a of n=2523 where the in-process run gives 1797) is
// refused, and the error names both identities; so is a set whose
// identity differs from the merging run's.
TEST(ProcessCampaign, MergeRefusesShardsOfAnotherConfiguration) {
  const ShardDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string small = "seed=42 scale=0.0001";
  const std::string other = "seed=7 scale=0.0002";
  std::vector<std::string> paths;
  for (unsigned shard = 0; shard < 2; ++shard) {
    DomainShardArtefact artefact;
    artefact.tag = "t";
    artefact.identity = shard == 0 ? small : other;
    artefact.shard = shard;
    artefact.of = 2;
    paths.push_back(dir.write("mixed.s" + std::to_string(shard),
                              encode_artefact(artefact)));
  }
  ParallelCampaignResult merged;
  std::string error;
  EXPECT_FALSE(merge_domain_shards(paths, "t", small, merged, error));
  EXPECT_NE(error.find(small), std::string::npos) << error;
  EXPECT_NE(error.find(other), std::string::npos) << error;

  // Matching shards merge only under their own identity.
  std::vector<std::string> same;
  for (unsigned shard = 0; shard < 2; ++shard) {
    DomainShardArtefact artefact;
    artefact.tag = "t";
    artefact.identity = small;
    artefact.shard = shard;
    artefact.of = 2;
    same.push_back(dir.write("same.s" + std::to_string(shard),
                             encode_artefact(artefact)));
  }
  EXPECT_TRUE(merge_domain_shards(same, "t", small, merged, error)) << error;
  EXPECT_FALSE(merge_domain_shards(same, "t", other, merged, error));
  EXPECT_NE(error.find(other), std::string::npos) << error;
}

TEST(ProcessCampaign, MergeRejectsIncompleteAndForeignSets) {
  const ShardDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::vector<std::string> paths = emit_domain_shards(2, dir);

  ParallelCampaignResult merged;
  std::string error;
  // Wrong tag: nothing matches.
  EXPECT_FALSE(merge_domain_shards(paths, "other", "", merged, error));
  EXPECT_NE(error.find("no shard artefact"), std::string::npos) << error;
  // Missing shard: incomplete set.
  EXPECT_FALSE(merge_domain_shards({paths[0]}, "t", "", merged, error));
  EXPECT_NE(error.find("incomplete"), std::string::npos) << error;
  // Duplicate shard.
  EXPECT_FALSE(
      merge_domain_shards({paths[0], paths[0], paths[1]}, "t", "", merged,
                          error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // A corrupted file fails typed, and the merge reports which file.
  {
    auto bytes = *analysis::read_bytes_file(paths[1]);
    bytes[bytes.size() / 2] ^= 0x40;
    ASSERT_TRUE(analysis::write_bytes_file(paths[1], bytes));
    EXPECT_FALSE(merge_domain_shards(paths, "t", "", merged, error));
    EXPECT_NE(error.find(paths[1]), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace zh::scanner
