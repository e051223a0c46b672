// Answer-cache semantics of the recursive resolver: repeat hits, explicit
// flushes, the wholesale capacity eviction, and the transient-SERVFAIL
// exclusion (a transport-caused failure must never be cached — a retry may
// well succeed; a *validation* failure is deterministic and is cached).
#include <gtest/gtest.h>

#include <memory>

#include "testbed/internet.hpp"

namespace zh::resolver {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RrType;
using simnet::IpAddress;

/// A fresh world per test: loss settings and cache contents must not leak
/// between cases.
class ResolverCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    specs_ = testbed::add_probe_infrastructure(internet_);
    internet_.build();
  }

  std::unique_ptr<RecursiveResolver> resolver(
      RecursiveResolver::Config config) {
    config.address = IpAddress::v4(203, 0, 113, 1);
    config.profile = ResolverProfile::bind9_2021();
    config.trust_anchor = internet_.trust_anchor();
    auto r = std::make_unique<RecursiveResolver>(
        internet_.network(), std::move(config), internet_.root_servers());
    r->attach();
    return r;
  }

  static Name nx(const std::string& token) {
    return Name::must_parse(token + ".nx.valid.rfc9276-in-the-wild.com");
  }

  testbed::Internet internet_;
  std::vector<testbed::ProbeZone> specs_;
};

TEST_F(ResolverCacheTest, RepeatHitAndFlush) {
  auto r = resolver({});

  const Message first = r->resolve(nx("repeat"), RrType::kA);
  EXPECT_EQ(first.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(r->stats().cache_hits, 0u);
  const std::uint64_t upstream_cold = r->stats().upstream_queries;

  // Same question again: answered from the cache, no upstream traffic.
  const Message second = r->resolve(nx("repeat"), RrType::kA);
  EXPECT_EQ(second.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(r->stats().cache_hits, 1u);
  EXPECT_EQ(r->stats().upstream_queries, upstream_cold);
  // The registry's mirror of the same counter (docs/TRACING.md).
  EXPECT_EQ(internet_.network().tracer().metrics().value("resolver.cache_hit"),
            1u);

  // flush_cache() drops answers *and* zone contexts: the next resolve goes
  // back upstream (from the root) instead of hitting the cache.
  r->flush_cache();
  const Message third = r->resolve(nx("repeat"), RrType::kA);
  EXPECT_EQ(third.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(r->stats().cache_hits, 1u);
  EXPECT_GT(r->stats().upstream_queries, upstream_cold);
}

TEST_F(ResolverCacheTest, DisabledCacheNeverHits) {
  RecursiveResolver::Config config;
  config.enable_cache = false;
  auto r = resolver(std::move(config));
  (void)r->resolve(nx("off"), RrType::kA);
  const std::uint64_t upstream_cold = r->stats().upstream_queries;
  (void)r->resolve(nx("off"), RrType::kA);
  EXPECT_EQ(r->stats().cache_hits, 0u);
  // Zone contexts are kept (they are not the answer cache), so the repeat
  // query is cheaper — but it must reach the authoritative server again.
  EXPECT_GT(r->stats().upstream_queries, upstream_cold);
}

TEST_F(ResolverCacheTest, CapacityEvictionIsWholesale) {
  // Capacity 2, three distinct names: inserting the third finds the cache
  // full and clears it wholesale (resolver.cpp), so only the third answer
  // survives.
  RecursiveResolver::Config config;
  config.cache_capacity = 2;
  auto r = resolver(std::move(config));
  (void)r->resolve(nx("a"), RrType::kA);
  (void)r->resolve(nx("b"), RrType::kA);
  (void)r->resolve(nx("c"), RrType::kA);  // size 2 >= capacity → clear, insert
  EXPECT_EQ(r->stats().cache_hits, 0u);

  (void)r->resolve(nx("c"), RrType::kA);  // survivor
  EXPECT_EQ(r->stats().cache_hits, 1u);
  (void)r->resolve(nx("a"), RrType::kA);  // evicted → re-resolved, re-cached
  EXPECT_EQ(r->stats().cache_hits, 1u);
  (void)r->resolve(nx("a"), RrType::kA);
  EXPECT_EQ(r->stats().cache_hits, 2u);
}

TEST_F(ResolverCacheTest, TransientServfailNotCached) {
  auto r = resolver({});
  // Total loss: every upstream exchange exhausts its retries, so the
  // resolver answers a *transient* SERVFAIL (EDE network error).
  internet_.network().set_loss(1.0, /*seed=*/1);
  const Message failed = r->resolve(nx("flaky"), RrType::kA);
  EXPECT_EQ(failed.header.rcode, Rcode::kServFail);
  EXPECT_GT(r->stats().upstream_timeouts, 0u);

  // The network heals; the same question must be retried upstream — if the
  // transient failure had been cached this would still SERVFAIL.
  internet_.network().set_loss(0.0);
  const Message healed = r->resolve(nx("flaky"), RrType::kA);
  EXPECT_EQ(healed.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(r->stats().cache_hits, 0u);

  // And the healed answer is cached like any other.
  (void)r->resolve(nx("flaky"), RrType::kA);
  EXPECT_EQ(r->stats().cache_hits, 1u);
}

TEST_F(ResolverCacheTest, DeterministicServfailIsCached) {
  // A validation failure (expired signatures) is a pure function of the
  // zone, not of transport luck — it is cached.
  auto r = resolver({});
  const Name name =
      Name::must_parse("probe.wc.expired.rfc9276-in-the-wild.com");
  const Message first = r->resolve(name, RrType::kA);
  EXPECT_EQ(first.header.rcode, Rcode::kServFail);
  const std::uint64_t upstream_cold = r->stats().upstream_queries;

  const Message second = r->resolve(name, RrType::kA);
  EXPECT_EQ(second.header.rcode, Rcode::kServFail);
  EXPECT_EQ(r->stats().cache_hits, 1u);
  EXPECT_EQ(r->stats().upstream_queries, upstream_cold);
}

// The answer cache is keyed by (qname, type, CD): a mixed-case repeat hits,
// CD and non-CD answers and different types are kept apart, and reaching
// the capacity clears the cache before the next insert.
TEST_F(ResolverCacheTest, KeyFoldsCaseAndSeparatesTypeAndCd) {
  RecursiveResolver::Config config;
  config.cache_capacity = 3;
  auto r = resolver(config);
  const auto ask = [&](const Name& name, RrType type, bool cd) {
    Message query = Message::make_query(1, name, type);
    query.header.cd = cd;
    return r->handle(query, IpAddress::v4(192, 0, 2, 200));
  };

  ask(nx("mixed"), RrType::kA, false);
  EXPECT_EQ(r->stats().cache_hits, 0u);
  ask(Name::must_parse("MIXED.Nx.Valid.RFC9276-in-the-wild.COM"), RrType::kA,
      false);
  EXPECT_EQ(r->stats().cache_hits, 1u);  // case folds
  ask(nx("mixed"), RrType::kA, true);
  EXPECT_EQ(r->stats().cache_hits, 1u);  // CD kept apart
  ask(nx("mixed"), RrType::kAaaa, false);
  EXPECT_EQ(r->stats().cache_hits, 1u);  // type kept apart
  ask(nx("mixed"), RrType::kA, true);
  ask(nx("mixed"), RrType::kAaaa, false);
  EXPECT_EQ(r->stats().cache_hits, 3u);  // both were cached

  // Three entries fill the cache: the next miss clears it, so every
  // earlier question misses again.
  ask(nx("other"), RrType::kA, false);
  EXPECT_EQ(r->stats().cache_hits, 3u);
  ask(nx("mixed"), RrType::kA, false);
  EXPECT_EQ(r->stats().cache_hits, 3u);
  ask(nx("other"), RrType::kA, false);
  EXPECT_EQ(r->stats().cache_hits, 4u);
}

}  // namespace
}  // namespace zh::resolver
