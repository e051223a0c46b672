// Tests for the aggressive negative-caching subsystem (ISSUE 9):
// resolver/negcache.hpp unit behaviour (insert/lookup/eviction determinism,
// RFC 8198 §5.2 opt-out and delegation refusals, adversarial malformed
// evidence, RFC 9520 TTL/backoff), the resolver wiring (synthesis absorbs
// repeat-cover water torture; failure-cache serves repeated broken names),
// and the campaign-level contracts: synth-off leaves campaign stats exactly
// as they were, and the new counters are --jobs-invariant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "resolver/negcache.hpp"
#include "scanner/parallel.hpp"
#include "testbed/internet.hpp"
#include "workload/install.hpp"
#include "workload/resolver_population.hpp"

namespace zh::resolver {
namespace {

using dns::Name;
using dns::RrType;

const Nsec3CacheParams kParams{.hash_algorithm = 1,
                               .iterations = 3,
                               .salt = {0xab, 0xcd}};

std::vector<std::uint8_t> hash_of(const Name& name) {
  const auto digest =
      dns::nsec3_hash_name(name, kParams.salt, kParams.iterations);
  return std::vector<std::uint8_t>(digest.begin(), digest.end());
}

/// The full NSEC3 chain for `names` in `zone`: hash each name, sort, link
/// owner→next with the wrap span at the end — exactly the interval set a
/// complete set of validated denial responses would have contributed.
std::vector<NegCacheInterval> chain_for(
    const Name& zone, const std::vector<Name>& names, bool opt_out = false,
    const std::vector<dns::TypeBitmap>& bitmaps = {}) {
  std::vector<std::pair<std::vector<std::uint8_t>, std::size_t>> hashed;
  for (std::size_t i = 0; i < names.size(); ++i)
    hashed.emplace_back(hash_of(names[i]), i);
  std::sort(hashed.begin(), hashed.end());
  std::vector<NegCacheInterval> intervals;
  for (std::size_t i = 0; i < hashed.size(); ++i) {
    NegCacheInterval interval;
    interval.owner_hash = hashed[i].first;
    interval.next_hash = hashed[(i + 1) % hashed.size()].first;
    interval.opt_out = opt_out;
    if (!bitmaps.empty()) interval.types = bitmaps[hashed[i].second];
    interval.record.name = dns::nsec3_owner_name(
        names[hashed[i].second], zone,
        std::span<const std::uint8_t>(kParams.salt.data(),
                                      kParams.salt.size()),
        kParams.iterations);
    interval.record.type = RrType::kNsec3;
    intervals.push_back(std::move(interval));
  }
  return intervals;
}

TEST(AggressiveNegCache, SynthesizesNxDomainFromCachedChain) {
  const Name zone = Name::must_parse("example.test");
  const std::vector<Name> names = {zone, *zone.prepended("www"),
                                   *zone.prepended("mail")};
  AggressiveNegCache cache;
  ASSERT_TRUE(cache.insert(zone, kParams, chain_for(zone, names)));
  EXPECT_EQ(cache.interval_count(), 3u);

  const auto synth = cache.lookup(*zone.prepended("nope"), RrType::kA);
  EXPECT_TRUE(synth.found);
  EXPECT_EQ(synth.rcode, dns::Rcode::kNxDomain);
  EXPECT_FALSE(synth.opt_out_refusal);
  // CE + next-closer cover + wildcard cover, deduplicated.
  EXPECT_FALSE(synth.authorities.empty());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(AggressiveNegCache, SynthesizesNoDataOnExactMatch) {
  const Name zone = Name::must_parse("example.test");
  const std::vector<Name> names = {zone, *zone.prepended("www")};
  std::vector<dns::TypeBitmap> bitmaps(names.size());
  bitmaps[1] = dns::TypeBitmap{RrType::kA};  // www has A only
  AggressiveNegCache cache;
  ASSERT_TRUE(cache.insert(zone, kParams, chain_for(zone, names, false,
                                                    bitmaps)));

  const auto nodata = cache.lookup(*zone.prepended("www"), RrType::kTxt);
  EXPECT_TRUE(nodata.found);
  EXPECT_EQ(nodata.rcode, dns::Rcode::kNoError);

  // The bitmap says the type exists — nothing to deny from cache.
  const auto have_it = cache.lookup(*zone.prepended("www"), RrType::kA);
  EXPECT_FALSE(have_it.found);
}

TEST(AggressiveNegCache, DelegationOwnersDenyNothingBelowTheCut) {
  const Name zone = Name::must_parse("example.test");
  const std::vector<Name> names = {zone, *zone.prepended("child")};
  std::vector<dns::TypeBitmap> bitmaps(names.size());
  bitmaps[1] = dns::TypeBitmap{RrType::kNs};  // delegation point, no SOA
  AggressiveNegCache cache;
  ASSERT_TRUE(cache.insert(zone, kParams, chain_for(zone, names, false,
                                                    bitmaps)));

  // NODATA at the cut itself: refused for A, allowed for DS (parent-side).
  EXPECT_FALSE(cache.lookup(*zone.prepended("child"), RrType::kA).found);
  EXPECT_TRUE(cache.lookup(*zone.prepended("child"), RrType::kDs).found);

  // NXDOMAIN below the cut with the delegation as closest encloser: the
  // child zone is authoritative there, never this cache.
  const auto below =
      cache.lookup(*zone.prepended("child")->prepended("deep"), RrType::kA);
  EXPECT_FALSE(below.found);
}

TEST(AggressiveNegCache, OptOutSpansRefuseNxDomainSynthesis) {
  const Name zone = Name::must_parse("optout.test");
  const std::vector<Name> names = {zone, *zone.prepended("www")};
  AggressiveNegCache cache;
  ASSERT_TRUE(cache.insert(zone, kParams,
                           chain_for(zone, names, /*opt_out=*/true)));

  const auto synth = cache.lookup(*zone.prepended("nope"), RrType::kA);
  EXPECT_FALSE(synth.found);
  EXPECT_TRUE(synth.opt_out_refusal);
  EXPECT_EQ(cache.stats().optout_refusals, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(AggressiveNegCache, RejectsMalformedEvidence) {
  const Name zone = Name::must_parse("example.test");
  const std::vector<Name> names = {zone, *zone.prepended("www"),
                                   *zone.prepended("mail")};
  const auto good = chain_for(zone, names);
  AggressiveNegCache cache;

  // Empty batches and non-SHA-1 parameter sets.
  EXPECT_FALSE(cache.insert(zone, kParams, {}));
  Nsec3CacheParams gost = kParams;
  gost.hash_algorithm = 2;
  EXPECT_FALSE(cache.insert(zone, gost, good));

  // Wrong hash length.
  auto truncated = good;
  truncated[0].owner_hash.resize(10);
  EXPECT_FALSE(cache.insert(zone, kParams, truncated));

  // Duplicate owner hashes in one batch.
  auto duplicated = good;
  duplicated.push_back(good[0]);
  EXPECT_FALSE(cache.insert(zone, kParams, duplicated));

  // A span covering another span's owner — contradictory evidence. The
  // wrap span widened to swallow the whole circle contradicts every other
  // owner in the batch.
  auto contradictory = good;
  for (auto& interval : contradictory) {
    if (!std::lexicographical_compare(
            interval.owner_hash.begin(), interval.owner_hash.end(),
            interval.next_hash.begin(), interval.next_hash.end())) {
      auto widened = interval;
      widened.next_hash = interval.owner_hash;
      widened.next_hash.back() ^= 0x01;
      contradictory = {good[0], widened};
      break;
    }
  }
  EXPECT_FALSE(cache.insert(zone, kParams, contradictory));

  // Opt-Out disagreeing within the batch.
  auto mixed = good;
  mixed.back().opt_out = true;
  EXPECT_FALSE(cache.insert(zone, kParams, mixed));

  // Nothing was cached by any of the rejected batches.
  EXPECT_EQ(cache.interval_count(), 0u);
  EXPECT_EQ(cache.stats().rejected_batches, 6u);

  // Pin the zone binding, then contradict it: different parameters, then a
  // different Opt-Out flag — both malformed for this zone.
  ASSERT_TRUE(cache.insert(zone, kParams, good));
  Nsec3CacheParams other = kParams;
  other.iterations = 42;
  EXPECT_FALSE(cache.insert(zone, other, good));
  EXPECT_FALSE(cache.insert(zone, kParams, chain_for(zone, names, true)));
  // A same-owner span with a different next hash contradicts the cache.
  auto rewired = good;
  rewired[0].next_hash = rewired[0].owner_hash;
  rewired[0].next_hash.back() ^= 0xff;
  EXPECT_FALSE(cache.insert(zone, kParams, {rewired[0]}));
  EXPECT_EQ(cache.interval_count(), 3u);
}

TEST(AggressiveNegCache, EvictsWholeZonesFifo) {
  const Name old_zone = Name::must_parse("old.test");
  const Name new_zone = Name::must_parse("new.test");
  AggressiveNegCache cache(4);
  ASSERT_TRUE(cache.insert(old_zone, kParams,
                           chain_for(old_zone, {old_zone,
                                                *old_zone.prepended("a")})));
  ASSERT_TRUE(cache.insert(
      new_zone, kParams,
      chain_for(new_zone, {new_zone, *new_zone.prepended("a"),
                           *new_zone.prepended("b")})));
  // 2 + 3 intervals over capacity 4 → the oldest zone goes, wholesale.
  EXPECT_EQ(cache.zone_count(), 1u);
  EXPECT_EQ(cache.interval_count(), 3u);
  EXPECT_EQ(cache.stats().evicted, 2u);
  EXPECT_FALSE(cache.lookup(*old_zone.prepended("nope"), RrType::kA).found);
  EXPECT_TRUE(cache.lookup(*new_zone.prepended("nope"), RrType::kA).found);
}

TEST(AggressiveNegCache, DeterministicAcrossIdenticalSequences) {
  const Name zone = Name::must_parse("example.test");
  const std::vector<Name> names = {zone, *zone.prepended("www"),
                                   *zone.prepended("mail")};
  const auto run = [&] {
    AggressiveNegCache cache(8);
    cache.insert(zone, kParams, chain_for(zone, names));
    NegCacheStats observed;
    for (int i = 0; i < 16; ++i) {
      const auto name = *zone.prepended("q" + std::to_string(i));
      (void)cache.lookup(name, RrType::kA);
    }
    return cache.stats();
  };
  const NegCacheStats a = run();
  const NegCacheStats b = run();
  EXPECT_EQ(a.inserted, b.inserted);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_GT(a.hits, 0u);  // the chain covers the whole circle
}

TEST(FailureCache, TtlExpiryAndBackoff) {
  FailureCache cache({.base_ttl = simtime::Duration::from_seconds(5),
                      .max_ttl = simtime::Duration::from_seconds(300),
                      .capacity = 4});
  const simtime::Duration t0 = simtime::Duration::from_seconds(0);

  EXPECT_EQ(cache.record("a|1", t0, dns::EdeCode::kNetworkError, "down"),
            simtime::Duration::from_seconds(5));
  const auto hit = cache.lookup("a|1", t0 + simtime::Duration::from_seconds(4));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ede, dns::EdeCode::kNetworkError);
  EXPECT_EQ(hit->ede_text, "down");
  // now == expires is already stale (a 5 s TTL serves for exactly 5 s).
  EXPECT_FALSE(
      cache.lookup("a|1", t0 + simtime::Duration::from_seconds(5)).has_value());

  // Consecutive failures double the TTL: 5 → 10 → 20 … capped at 300.
  EXPECT_EQ(cache.record("a|1", t0), simtime::Duration::from_seconds(10));
  EXPECT_EQ(cache.record("a|1", t0), simtime::Duration::from_seconds(20));
  for (int i = 0; i < 10; ++i) cache.record("a|1", t0);
  EXPECT_EQ(cache.record("a|1", t0), simtime::Duration::from_seconds(300));
}

TEST(FailureCache, ClampsConfigIntoRfc9520Window) {
  FailureCache cache({.base_ttl = simtime::Duration::from_ms(10),
                      .max_ttl = simtime::Duration::from_seconds(9999)});
  const simtime::Duration t0 = simtime::Duration::from_seconds(0);
  // base clamps up to 1 s; max clamps down to 300 s.
  EXPECT_EQ(cache.record("k", t0), simtime::Duration::from_seconds(1));
  for (int i = 0; i < 12; ++i) cache.record("k", t0);
  EXPECT_EQ(cache.record("k", t0), simtime::Duration::from_seconds(300));
}

TEST(FailureCache, CapacityClearsWholesale) {
  FailureCache cache({.base_ttl = simtime::Duration::from_seconds(5),
                      .max_ttl = simtime::Duration::from_seconds(300),
                      .capacity = 2});
  const simtime::Duration t0 = simtime::Duration::from_seconds(0);
  cache.record("a", t0);
  cache.record("b", t0);
  cache.record("c", t0);  // over capacity → deterministic wholesale clear
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats().clears, 1u);
  EXPECT_FALSE(cache.lookup("a", t0 + simtime::Duration::from_seconds(1))
                   .has_value());
  EXPECT_TRUE(cache.lookup("c", t0 + simtime::Duration::from_seconds(1))
                  .has_value());
}

// --- Resolver wiring ---

/// One small NSEC3 world: wt.example with the standard record set.
std::unique_ptr<testbed::Internet> water_torture_world(bool opt_out) {
  auto internet = std::make_unique<testbed::Internet>();
  testbed::DomainConfig config;
  config.apex = Name::must_parse("wt.example");
  config.nsec3 = {.iterations = 3, .salt = {0xab, 0xcd}, .opt_out = opt_out};
  internet->add_domain(config);
  internet->build();
  return internet;
}

TEST(ResolverNegCache, SynthesisAbsorbsRepeatCoverWaterTorture) {
  auto internet = water_torture_world(/*opt_out=*/false);
  ResolverProfile profile = ResolverProfile::permissive();
  profile.enable_aggressive(4096, simtime::Duration::from_seconds(5));
  auto victim = internet->make_resolver(profile,
                                        simnet::IpAddress::v4(10, 9, 0, 1));
  const Name apex = Name::must_parse("wt.example");

  // Warm: a few unique junk names fetch proofs covering the whole chain.
  for (int i = 0; i < 8; ++i) {
    const auto reply =
        victim->resolve(*apex.prepended("warm" + std::to_string(i)),
                        RrType::kA);
    EXPECT_EQ(reply.header.rcode, dns::Rcode::kNxDomain);
  }
  // Later warm probes may already synthesize; measure deltas from here.
  const std::uint64_t upstream_before = victim->stats().upstream_queries;
  const std::uint64_t synth_before = victim->stats().neg_synth_hits;
  ASSERT_GT(victim->stats().neg_cache_inserts, 0u);

  // Measured: every further unique name synthesizes from cache with zero
  // authoritative fetches, and the synthesized answer is validated (AD).
  for (int i = 0; i < 20; ++i) {
    const auto reply = victim->resolve(
        *apex.prepended("torture" + std::to_string(i)), RrType::kA);
    EXPECT_EQ(reply.header.rcode, dns::Rcode::kNxDomain);
    EXPECT_TRUE(reply.header.ad);
    EXPECT_FALSE(reply.authorities.empty());
  }
  EXPECT_EQ(victim->stats().upstream_queries, upstream_before);
  EXPECT_EQ(victim->stats().neg_synth_hits, synth_before + 20u);

  // flush_cache drops the intervals too: the next probe goes upstream.
  victim->flush_cache();
  (void)victim->resolve(*apex.prepended("after-flush"), RrType::kA);
  EXPECT_GT(victim->stats().upstream_queries, upstream_before);
}

TEST(ResolverNegCache, OptOutZoneNeverSynthesizesButCounts) {
  auto internet = water_torture_world(/*opt_out=*/true);
  ResolverProfile profile = ResolverProfile::permissive();
  profile.enable_aggressive(4096, simtime::Duration::from_seconds(5));
  auto victim = internet->make_resolver(profile,
                                        simnet::IpAddress::v4(10, 9, 0, 2));
  const Name apex = Name::must_parse("wt.example");

  for (int i = 0; i < 12; ++i) {
    const auto reply = victim->resolve(
        *apex.prepended("torture" + std::to_string(i)), RrType::kA);
    EXPECT_EQ(reply.header.rcode, dns::Rcode::kNxDomain);
  }
  EXPECT_EQ(victim->stats().neg_synth_hits, 0u);
  EXPECT_GT(victim->stats().neg_synth_optout_refusals, 0u);
}

TEST(ResolverNegCache, CapabilityOffLeavesCountersAtZero) {
  auto internet = water_torture_world(/*opt_out=*/false);
  auto victim = internet->make_resolver(ResolverProfile::permissive(),
                                        simnet::IpAddress::v4(10, 9, 0, 3));
  const Name apex = Name::must_parse("wt.example");
  for (int i = 0; i < 8; ++i)
    (void)victim->resolve(*apex.prepended("q" + std::to_string(i)),
                          RrType::kA);
  EXPECT_EQ(victim->stats().neg_synth_hits, 0u);
  EXPECT_EQ(victim->stats().neg_cache_inserts, 0u);
  EXPECT_EQ(victim->stats().failure_cache_hits, 0u);
  // The metrics stay unregistered, so traced output is untouched too.
  EXPECT_EQ(internet->network().tracer().metrics().value(
                "resolver.neg_synth_hit"),
            0u);
}

TEST(ResolverNegCache, FailureCacheServesRepeatedBrokenNames) {
  auto internet = water_torture_world(/*opt_out=*/false);
  ResolverProfile profile = ResolverProfile::permissive();
  profile.enable_aggressive(4096, simtime::Duration::from_seconds(5));
  auto victim = internet->make_resolver(profile,
                                        simnet::IpAddress::v4(10, 9, 0, 4));
  // Total loss: every upstream exchange times out transiently.
  internet->network().set_loss(1.0, 7);

  const Name broken = Name::must_parse("down.wt.example");
  const auto first = victim->resolve(broken, RrType::kA);
  EXPECT_EQ(first.header.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(victim->stats().failure_cache_inserts, 1u);
  const std::uint64_t upstream_before = victim->stats().upstream_queries;

  // The repeat is served from the failure cache — no new upstream attempts.
  const auto second = victim->resolve(broken, RrType::kA);
  EXPECT_EQ(second.header.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(victim->stats().failure_cache_hits, 1u);
  EXPECT_EQ(victim->stats().upstream_queries, upstream_before);
}

// --- Campaign contracts ---

TEST(CampaignNegCache, SynthOffStatsIdenticalToDefaultFactory) {
  const workload::EcosystemSpec spec({.scale = 0.0001, .seed = 42});
  // The 3-argument factory with the default Cloudflare profile IS the
  // pre-ISSUE path; an explicitly-passed default profile must reproduce it
  // stat-for-stat (the CI job byte-diffs the full bench stdout on top).
  const scanner::ParallelCampaignResult golden =
      scanner::run_domain_campaign_parallel(
          spec, scanner::default_world_factory(spec), {.jobs = 2,
                                                       .base_seed = 42});
  const scanner::ParallelCampaignResult explicit_off =
      scanner::run_domain_campaign_parallel(
          spec,
          scanner::default_world_factory(spec, true,
                                         ResolverProfile::cloudflare()),
          {.jobs = 2, .base_seed = 42});
  EXPECT_EQ(golden.stats.scanned, explicit_off.stats.scanned);
  EXPECT_EQ(golden.stats.nsec3, explicit_off.stats.nsec3);
  EXPECT_EQ(golden.stats.iterations.histogram(),
            explicit_off.stats.iterations.histogram());
  EXPECT_EQ(golden.queries_issued, explicit_off.queries_issued);
  EXPECT_EQ(golden.stats.neg_synth_hits, 0u);
  EXPECT_EQ(golden.stats.failure_cache_hits, 0u);
  EXPECT_EQ(explicit_off.stats.neg_synth_hits, 0u);
  EXPECT_EQ(explicit_off.stats.failure_cache_hits, 0u);
}

TEST(CampaignNegCache, SynthCountersJobsInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.0001, .seed = 42});
  ResolverProfile scan = ResolverProfile::cloudflare();
  scan.enable_aggressive(4096, simtime::Duration::from_seconds(5));
  const auto factory = scanner::default_world_factory(spec, true, scan);

  const scanner::ParallelCampaignResult serial =
      scanner::run_domain_campaign_parallel(spec, factory,
                                            {.jobs = 1, .base_seed = 42});
  const scanner::ParallelCampaignResult sharded =
      scanner::run_domain_campaign_parallel(spec, factory,
                                            {.jobs = 4, .base_seed = 42});
  EXPECT_EQ(serial.stats.scanned, sharded.stats.scanned);
  EXPECT_EQ(serial.stats.neg_synth_hits, sharded.stats.neg_synth_hits);
  EXPECT_EQ(serial.stats.failure_cache_hits, sharded.stats.failure_cache_hits);
}

TEST(SweepNegCache, AggressivePanelCountersJobsInvariant) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  auto panel =
      workload::figure3_panel(workload::Panel::kClosedV4, 0.001);
  for (auto& entry : panel.entries)
    entry.profile.enable_aggressive(4096,
                                    simtime::Duration::from_seconds(5));
  const auto factory = scanner::default_world_factory(spec, false);

  const scanner::ParallelSweepResult serial =
      scanner::run_resolver_sweep_parallel(panel, factory, "nc-", 1u << 20,
                                           {.jobs = 1, .base_seed = 42});
  const scanner::ParallelSweepResult sharded =
      scanner::run_resolver_sweep_parallel(panel, factory, "nc-", 1u << 20,
                                           {.jobs = 3, .base_seed = 42});
  EXPECT_EQ(serial.stats.probed, sharded.stats.probed);
  EXPECT_EQ(serial.stats.neg_synth_hits, sharded.stats.neg_synth_hits);
  EXPECT_EQ(serial.stats.failure_cache_hits, sharded.stats.failure_cache_hits);
}

}  // namespace
}  // namespace zh::resolver
