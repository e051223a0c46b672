// zh::trace subsystem tests: ring-buffer bounds, span timestamps from a
// virtual TimeSource, the metrics registry, deterministic export — and the
// ISSUE acceptance criteria: with tracing enabled the merged JSONL stream
// is byte-identical for the same (seed, jobs); campaign aggregates stay
// bit-identical for ANY jobs value, traced or not; and the zone-LRU
// metrics expose the eviction pressure behind the ROADMAP sizing item.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "scanner/parallel.hpp"
#include "server/auth_server.hpp"
#include "testbed/internet.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace zh::trace {
namespace {

/// Hand-cranked virtual clock for unit-level tracer tests.
struct FakeTime final : TimeSource {
  std::int64_t t = 0;
  std::int64_t now_ns() const override { return t; }
};

TEST(Tracer, RingBoundKeepsNewestEvents) {
  FakeTime time;
  Tracer tracer(&time);
  tracer.configure({.enabled = true, .buffer_capacity = 4});

  for (int i = 0; i < 10; ++i) {
    time.t = i;
    tracer.instant("test", "tick");
  }
  EXPECT_EQ(tracer.events_emitted(), 10u);
  EXPECT_EQ(tracer.events_lost(), 6u);

  const ShardTrace shard = tracer.take();
  ASSERT_EQ(shard.events.size(), 4u);
  EXPECT_EQ(shard.emitted, 10u);
  EXPECT_EQ(shard.lost, 6u);
  // Oldest → newest: the ring kept the most recent window.
  for (std::size_t i = 0; i < shard.events.size(); ++i)
    EXPECT_EQ(shard.events[i].ts_ns, static_cast<std::int64_t>(6 + i));
}

TEST(Tracer, SpanStampsVirtualTimeAndNesting) {
  FakeTime time;
  Tracer tracer(&time);
  tracer.configure({.enabled = true});

  time.t = 100;
  {
    Span outer = tracer.span("resolver", "resolve", "example.com.");
    time.t = 150;
    {
      Span inner = tracer.span("net", "deliver.udp");
      time.t = 250;
    }
    time.t = 400;
  }

  const ShardTrace shard = tracer.take();
  ASSERT_EQ(shard.events.size(), 2u);
  // Spans close inner-first.
  EXPECT_STREQ(shard.events[0].name, "deliver.udp");
  EXPECT_EQ(shard.events[0].ts_ns, 150);
  EXPECT_EQ(shard.events[0].dur_ns, 100);
  EXPECT_EQ(shard.events[0].depth, 1u);
  EXPECT_STREQ(shard.events[1].name, "resolve");
  EXPECT_EQ(shard.events[1].ts_ns, 100);
  EXPECT_EQ(shard.events[1].dur_ns, 300);
  EXPECT_EQ(shard.events[1].depth, 0u);
  EXPECT_EQ(shard.events[1].detail, "example.com.");
}

TEST(Tracer, DisabledTracerEmitsNothingButCountsMetrics) {
  FakeTime time;
  Tracer tracer(&time);  // default config: disabled

  {
    Span s = tracer.span("resolver", "resolve");
    EXPECT_FALSE(s.active());
  }
  tracer.instant("test", "tick");
  tracer.count("some.counter");
  tracer.add_stage(Stage::kRecurse, 42);

  EXPECT_EQ(tracer.events_emitted(), 0u);
  EXPECT_TRUE(tracer.take().events.empty());
  // Metrics and stage totals are always on (they produce no output unless
  // printed) — the cost contract in trace/trace.hpp.
  EXPECT_EQ(tracer.metrics().value("some.counter"), 1u);
  EXPECT_EQ(tracer.stage_ns(Stage::kRecurse), 42);
}

TEST(Metrics, RegistryHandlesAndSnapshot) {
  Metrics a;
  Metrics::Counter slot = a.counter("resolver.cache_hit");
  ++*slot;
  ++*slot;
  a.add("queue.shed", 3);
  // counter() returns the same stable slot on re-registration.
  EXPECT_EQ(a.counter("resolver.cache_hit"), slot);
  EXPECT_EQ(a.value("resolver.cache_hit"), 2u);
  EXPECT_EQ(a.value("never.registered"), 0u);
  a.add("client.retransmit");

  const auto snapshot = a.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // sorted by name
  EXPECT_EQ(snapshot[0].first, "client.retransmit");
  EXPECT_EQ(snapshot[1].first, "queue.shed");
  EXPECT_EQ(snapshot[2].first, "resolver.cache_hit");
}

TEST(Export, JsonlAndChromeShape) {
  FakeTime time;
  Tracer tracer(&time);
  tracer.configure({.enabled = true});
  tracer.set_flow(7);
  time.t = 1000;
  {
    Span s = tracer.span("net", "deliver.udp", "1.1.1.1");
    time.t = 3500;
  }
  tracer.instant("queue", "shed");
  tracer.count("queue.shed");

  Collector collector;
  collector.add_shard(0, tracer.take());
  EXPECT_EQ(collector.shard_count(), 1u);
  EXPECT_EQ(collector.event_count(), 2u);
  EXPECT_EQ(collector.metric("queue.shed"), 1u);

  const std::string jsonl = collector.to_jsonl();
  EXPECT_NE(jsonl.find("{\"shard\":0,\"ph\":\"X\",\"cat\":\"net\","
                       "\"name\":\"deliver.udp\",\"ts\":1000,\"dur\":2500"),
            std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"shard_summary\""), std::string::npos);

  const std::string chrome = collector.to_chrome();
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  // ns → µs: 1000 ns = 1.000 µs, 2500 ns = 2.500 µs.
  EXPECT_NE(chrome.find("\"ts\":1.000"), std::string::npos) << chrome;
  EXPECT_NE(chrome.find("\"dur\":2.500"), std::string::npos) << chrome;
}

TEST(Export, UntouchedCounterLeavesJsonlUnchanged) {
  // One shard's JSONL, with or without one more counter registered and
  // never ticked: a metric added anywhere must not change trace artefacts.
  const auto jsonl = [](bool register_untouched) {
    FakeTime time;
    Tracer tracer(&time);
    tracer.configure({.enabled = true});
    tracer.set_flow(7);
    if (register_untouched) (void)tracer.metrics().counter("a.untouched");
    tracer.instant("queue", "shed");
    tracer.count("queue.shed", 2);
    Collector collector;
    collector.add_shard(0, tracer.take());
    return std::pair(collector.to_jsonl(), collector.metrics());
  };
  const auto [without, without_metrics] = jsonl(false);
  const auto [with, with_metrics] = jsonl(true);
  EXPECT_EQ(with, without);
  EXPECT_NE(with.find(",\"queue.shed\":2}"), std::string::npos) << with;
  // The `# trace metric` view still lists every registered counter.
  EXPECT_EQ(with_metrics.size(), without_metrics.size() + 1);
}

// --- Campaign-level acceptance criteria ---------------------------------

scanner::ParallelOptions traced_options(unsigned jobs, bool enabled) {
  scanner::ParallelOptions options;
  options.jobs = jobs;
  options.base_seed = 42;
  options.limit = 120;  // keep the worlds' scan portion cheap
  // A latency + service model so virtual time (and with it every span
  // timestamp and stage total) actually moves.
  options.latency = simtime::LatencyModel(simtime::Duration::from_us(2000),
                                          simtime::Duration::from_us(500),
                                          options.base_seed);
  options.service = {.per_sha1_block = simtime::Duration::from_us(1)};
  options.trace.enabled = enabled;
  return options;
}

TEST(TraceDeterminism, JsonlByteIdenticalForSameSeedAndJobs) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = scanner::default_world_factory(spec);

  const auto first = scanner::run_domain_campaign_parallel(
      spec, factory, traced_options(/*jobs=*/2, /*enabled=*/true));
  const auto second = scanner::run_domain_campaign_parallel(
      spec, factory, traced_options(/*jobs=*/2, /*enabled=*/true));

  EXPECT_GT(first.trace.event_count(), 0u);
  EXPECT_EQ(first.trace.to_jsonl(), second.trace.to_jsonl());
  EXPECT_EQ(first.trace.to_chrome(), second.trace.to_chrome());
}

TEST(TraceDeterminism, AggregatesJobsInvariantWhileTraced) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = scanner::default_world_factory(spec);

  const auto serial = scanner::run_domain_campaign_parallel(
      spec, factory, traced_options(/*jobs=*/1, /*enabled=*/true));
  const auto sharded = scanner::run_domain_campaign_parallel(
      spec, factory, traced_options(/*jobs=*/3, /*enabled=*/true));

  // The raw event streams differ across jobs (per-worker warm passes and
  // shard interleaving are worker-count artefacts) — but every aggregated
  // quantity, including the per-item stage breakdown, must not.
  EXPECT_GT(serial.stats.scanned, 0u);
  EXPECT_EQ(serial.stats.scanned, sharded.stats.scanned);
  EXPECT_EQ(serial.stats.nsec3, sharded.stats.nsec3);
  EXPECT_EQ(serial.queries_issued, sharded.queries_issued);
  EXPECT_EQ(serial.stats.scan_latency_us.histogram(),
            sharded.stats.scan_latency_us.histogram());
  EXPECT_EQ(serial.stats.stage_resolve_us.histogram(),
            sharded.stats.stage_resolve_us.histogram());
  EXPECT_EQ(serial.stats.stage_recurse_us.histogram(),
            sharded.stats.stage_recurse_us.histogram());
  EXPECT_EQ(serial.stats.stage_validate_us.histogram(),
            sharded.stats.stage_validate_us.histogram());
  EXPECT_EQ(serial.stats.stage_queue_wait_us.histogram(),
            sharded.stats.stage_queue_wait_us.histogram());
  // Time actually moved, so the breakdown is non-trivial.
  EXPECT_GT(serial.stats.stage_resolve_us.max(), 0);
  EXPECT_GT(serial.stats.stage_recurse_us.max(), 0);
}

TEST(TraceDeterminism, TracingLeavesCampaignUntouched) {
  const workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  const auto factory = scanner::default_world_factory(spec);

  const auto off = scanner::run_domain_campaign_parallel(
      spec, factory, traced_options(/*jobs=*/2, /*enabled=*/false));
  const auto on = scanner::run_domain_campaign_parallel(
      spec, factory, traced_options(/*jobs=*/2, /*enabled=*/true));

  // Goldens contract: enabling tracing must not perturb a single statistic.
  EXPECT_EQ(off.trace.event_count(), 0u);
  EXPECT_GT(on.trace.event_count(), 0u);
  EXPECT_EQ(off.stats.scanned, on.stats.scanned);
  EXPECT_EQ(off.stats.dnssec, on.stats.dnssec);
  EXPECT_EQ(off.stats.nsec3, on.stats.nsec3);
  EXPECT_EQ(off.queries_issued, on.queries_issued);
  EXPECT_EQ(off.stats.scan_latency_us.histogram(),
            on.stats.scan_latency_us.histogram());
  EXPECT_EQ(off.stats.stage_resolve_us.histogram(),
            on.stats.stage_resolve_us.histogram());
  // Metrics are collected either way — and merge identically.
  EXPECT_EQ(off.trace.metrics(), on.trace.metrics());

  ASSERT_EQ(off.records.size(), on.records.size());
  for (std::size_t i = 0; i < off.records.size(); ++i) {
    EXPECT_EQ(off.records[i].classification, on.records[i].classification)
        << off.records[i].index;
  }
}

// --- ROADMAP LRU sizing item (satellite: eviction pressure) -------------

// A single operator hosting far more lazy zones than its LRU holds — the
// shape a ZH_SCALE=0.01 single-operator campaign produces (Squarespace in
// Table 2 serves millions of zones through one PoP). The zone-LRU metrics
// expose the materialise/evict/re-sign pressure that the ROADMAP
// "measure, then size by spec" item needs.
TEST(TraceMetrics, LazyZoneEvictionPressureUnderScan) {
  using dns::Name;
  using dns::RrType;

  constexpr int kDomains = 40;
  constexpr std::size_t kCapacity = 8;

  testbed::Internet internet;
  internet.add_tld("com", testbed::TldConfig{});
  const std::size_t op = internet.add_operator("bulk");
  testbed::OperatorHandle& handle = internet.hosting_operator(op);
  const simnet::IpAddress host = handle.address_v4;

  const auto apex_of = [](int i) {
    return Name::must_parse("lazy" + std::to_string(i) + ".com");
  };
  handle.server->set_lazy_provider(
      [](const Name& qname) -> std::optional<Name> {
        if (qname.label_count() < 2) return std::nullopt;
        const Name apex = qname.ancestor_with_labels(2);
        return apex.to_string().rfind("lazy", 0) == 0
                   ? std::optional<Name>(apex)
                   : std::nullopt;
      },
      [host](const Name& apex) -> std::shared_ptr<const zone::Zone> {
        testbed::DomainConfig config;
        config.apex = apex;
        config.nsec3 = {.iterations = 10, .salt = {0xab}, .opt_out = false};
        return testbed::Internet::materialise_zone(config, host);
      },
      kCapacity);
  for (int i = 0; i < kDomains; ++i)
    internet.add_lazy_delegation({apex_of(i), /*dnssec=*/true, op});
  internet.build();

  // Event tracing on: materialisations should show up as spans too.
  internet.network().tracer().configure({.enabled = true});

  auto resolver = internet.make_resolver(
      resolver::ResolverProfile::bind9_2021(),
      simnet::IpAddress::v4(203, 0, 113, 9));
  for (int i = 0; i < kDomains; ++i) {
    const auto reply =
        resolver->resolve(*apex_of(i).prepended("www"), RrType::kA);
    ASSERT_EQ(reply.header.rcode, dns::Rcode::kNoError) << i;
  }

  const server::AuthoritativeServer& srv = *handle.server;
  const Metrics& metrics = internet.network().tracer().metrics();

  // First pass: every zone materialises once; the LRU can hold 8 of 40, so
  // eviction pressure is massive — but nothing is ever revisited, so no
  // zone is re-signed yet.
  EXPECT_EQ(srv.lazy_materialisations(), static_cast<std::uint64_t>(kDomains));
  EXPECT_GE(srv.lazy_evictions(), static_cast<std::uint64_t>(kDomains) -
                                      static_cast<std::uint64_t>(kCapacity));
  EXPECT_EQ(srv.lazy_resigns(), 0u);
  // DNSKEY/DS chasing revisits a just-materialised zone: LRU hits.
  EXPECT_GT(srv.lazy_hits(), 0u);

  // The registry mirrors the counters one-for-one (docs/TRACING.md names).
  EXPECT_EQ(metrics.value("server.zone_materialise"),
            srv.lazy_materialisations());
  EXPECT_EQ(metrics.value("server.zone_evict"), srv.lazy_evictions());
  EXPECT_EQ(metrics.value("server.zone_cache_hit"), srv.lazy_hits());
  EXPECT_EQ(metrics.value("server.zone_resign"), 0u);

  // Second pass over the same population (resolver cache flushed): every
  // previously evicted zone must be materialised — and therefore signed —
  // again. This is the re-sign cost the LRU has to be sized against.
  resolver->flush_cache();
  for (int i = 0; i < kDomains; ++i)
    (void)resolver->resolve(*apex_of(i).prepended("www"), RrType::kA);
  EXPECT_GT(srv.lazy_resigns(), 0u);
  EXPECT_EQ(metrics.value("server.zone_resign"), srv.lazy_resigns());
  EXPECT_EQ(metrics.value("server.zone_evict"), srv.lazy_evictions());

  // And the span stream saw the materialisations + evictions.
  const ShardTrace shard = internet.network().tracer().take();
  std::uint64_t materialise_spans = 0;
  std::uint64_t evict_instants = 0;
  for (const Event& event : shard.events) {
    if (std::string_view(event.name) == "zone.materialise")
      ++materialise_spans;
    if (std::string_view(event.name) == "zone.evict") ++evict_instants;
  }
  EXPECT_EQ(materialise_spans, srv.lazy_materialisations());
  EXPECT_EQ(evict_instants, srv.lazy_evictions());
}

// The sizing half of the ROADMAP item: with set_lazy_cache_adaptive the
// LRU reads its own server.zone_* pressure counters — each re-sign doubles
// the capacity (ticking server.zone_cache_grow) until the working set
// fits, so repeat scan passes stop re-signing instead of thrashing on the
// hardcoded capacity forever.
TEST(TraceMetrics, LazyZoneCacheGrowsUnderResignPressure) {
  using dns::Name;
  using dns::RrType;

  constexpr int kDomains = 40;
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kMaxCapacity = 64;

  testbed::Internet internet;
  internet.add_tld("com", testbed::TldConfig{});
  const std::size_t op = internet.add_operator("bulk");
  testbed::OperatorHandle& handle = internet.hosting_operator(op);
  const simnet::IpAddress host = handle.address_v4;

  const auto apex_of = [](int i) {
    return Name::must_parse("grow" + std::to_string(i) + ".com");
  };
  handle.server->set_lazy_provider(
      [](const Name& qname) -> std::optional<Name> {
        if (qname.label_count() < 2) return std::nullopt;
        const Name apex = qname.ancestor_with_labels(2);
        return apex.to_string().rfind("grow", 0) == 0
                   ? std::optional<Name>(apex)
                   : std::nullopt;
      },
      [host](const Name& apex) -> std::shared_ptr<const zone::Zone> {
        testbed::DomainConfig config;
        config.apex = apex;
        config.nsec3 = {.iterations = 10, .salt = {0xab}, .opt_out = false};
        return testbed::Internet::materialise_zone(config, host);
      },
      kCapacity);
  handle.server->set_lazy_cache_adaptive(kMaxCapacity);
  for (int i = 0; i < kDomains; ++i)
    internet.add_lazy_delegation({apex_of(i), /*dnssec=*/true, op});
  internet.build();
  internet.network().tracer().configure({.enabled = true});

  auto resolver = internet.make_resolver(
      resolver::ResolverProfile::bind9_2021(),
      simnet::IpAddress::v4(203, 0, 113, 10));
  const auto scan_all = [&] {
    for (int i = 0; i < kDomains; ++i) {
      const auto reply =
          resolver->resolve(*apex_of(i).prepended("www"), RrType::kA);
      ASSERT_EQ(reply.header.rcode, dns::Rcode::kNoError) << i;
    }
  };

  const server::AuthoritativeServer& srv = *handle.server;
  const Metrics& metrics = internet.network().tracer().metrics();

  // First pass: nothing is revisited, so no resign pressure yet — the
  // adaptive policy must not fire and eviction churn matches the
  // non-adaptive scenario above.
  scan_all();
  EXPECT_EQ(srv.lazy_materialisations(), static_cast<std::uint64_t>(kDomains));
  EXPECT_EQ(srv.lazy_resigns(), 0u);
  EXPECT_EQ(srv.lazy_cache_growths(), 0u);
  EXPECT_EQ(srv.lazy_cache_capacity(), kCapacity);
  const std::uint64_t pass1_evictions = srv.lazy_evictions();
  EXPECT_GE(pass1_evictions, static_cast<std::uint64_t>(kDomains) -
                                 static_cast<std::uint64_t>(kCapacity));

  // Second pass: the first re-signs prove the working set outgrew the
  // cache, and each doubles the capacity — 8 -> 16 -> 32 -> 64 — until the
  // whole population fits. Every zone evicted in pass one still re-signs
  // exactly once, but nothing is evicted any more.
  resolver->flush_cache();
  scan_all();
  EXPECT_EQ(srv.lazy_resigns(), static_cast<std::uint64_t>(kDomains) -
                                    static_cast<std::uint64_t>(kCapacity));
  EXPECT_EQ(srv.lazy_cache_growths(), 3u);
  EXPECT_EQ(srv.lazy_cache_capacity(), kMaxCapacity);
  EXPECT_EQ(srv.lazy_evictions(), pass1_evictions);
  EXPECT_EQ(metrics.value("server.zone_cache_grow"),
            srv.lazy_cache_growths());

  // Third pass: the grown cache holds the whole population — pure hits,
  // zero new materialisations or re-signs. The thrash is gone.
  const std::uint64_t settled_materialisations = srv.lazy_materialisations();
  const std::uint64_t settled_resigns = srv.lazy_resigns();
  resolver->flush_cache();
  scan_all();
  EXPECT_EQ(srv.lazy_materialisations(), settled_materialisations);
  EXPECT_EQ(srv.lazy_resigns(), settled_resigns);
  EXPECT_EQ(srv.lazy_evictions(), pass1_evictions);

  // Each growth is visible in the event stream as a zone.cache_grow
  // instant carrying the new capacity.
  const ShardTrace shard = internet.network().tracer().take();
  std::uint64_t grow_instants = 0;
  for (const Event& event : shard.events)
    if (std::string_view(event.name) == "zone.cache_grow") ++grow_instants;
  EXPECT_EQ(grow_instants, srv.lazy_cache_growths());
}

TEST(TraceMetrics, LazyZoneCacheStopsAtItsCap) {
  // A working set larger than the adaptive LRU's maximum: the capacity
  // doubles up to the cap and no further, the LRU never holds more zones
  // than the cap, every revisit re-signs and counts in server.zone_resign,
  // and a revived zone answers with the bytes of its first materialisation.
  using dns::Message;
  using dns::Name;

  constexpr int kDomains = 24;
  constexpr std::size_t kCapacity = 2;
  constexpr std::size_t kMaxCapacity = 8;

  FakeTime time;
  Tracer tracer(&time);
  server::AuthoritativeServer srv("bulk-ns");
  srv.set_tracer(&tracer);
  const simnet::IpAddress host = simnet::IpAddress::v4(192, 0, 2, 53);
  srv.set_lazy_provider(
      [](const Name& qname) -> std::optional<Name> {
        if (qname.label_count() < 2) return std::nullopt;
        return qname.ancestor_with_labels(2);
      },
      [host](const Name& apex) -> std::shared_ptr<const zone::Zone> {
        testbed::DomainConfig config;
        config.apex = apex;
        config.nsec3 = {.iterations = 5, .salt = {0xab}, .opt_out = false};
        return testbed::Internet::materialise_zone(config, host);
      },
      kCapacity);
  srv.set_lazy_cache_adaptive(kMaxCapacity);

  // An NXDOMAIN answer carries the zone's NSEC3 proof, so the revived
  // zone's chain shows in the bytes compared below.
  const auto ask = [&srv](int i) {
    return srv.handle(
        Message::make_query(
            1, Name::must_parse("nx.cap" + std::to_string(i) + ".com"),
            dns::RrType::kA, /*dnssec=*/true),
        simnet::IpAddress::v4(203, 0, 113, 10));
  };
  const auto held = [&srv] {
    return srv.lazy_materialisations() - srv.lazy_evictions();
  };

  const Message first = ask(0);
  ASSERT_EQ(first.header.rcode, dns::Rcode::kNxDomain);
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < kDomains; ++i) {
      ask(i);
      ASSERT_LE(srv.lazy_cache_capacity(), kMaxCapacity) << pass << "/" << i;
      ASSERT_LE(held(), kMaxCapacity) << pass << "/" << i;
    }
  }
  // 2 -> 4 -> 8 on the first two re-signs, then no further.
  EXPECT_EQ(srv.lazy_cache_growths(), 2u);
  EXPECT_EQ(srv.lazy_cache_capacity(), kMaxCapacity);
  EXPECT_EQ(held(), kMaxCapacity);
  // Visited in order through at most 8 slots, each of the 24 zones is
  // evicted before its next visit: the first pass re-signs nothing, each
  // later pass re-signs every zone.
  EXPECT_EQ(srv.lazy_resigns(), 2u * kDomains);
  EXPECT_EQ(tracer.metrics().value("server.zone_resign"), srv.lazy_resigns());

  const std::uint64_t resigns = srv.lazy_resigns();
  const Message revived = ask(0);
  EXPECT_EQ(srv.lazy_resigns(), resigns + 1);
  EXPECT_EQ(revived.to_wire(), first.to_wire());
}

}  // namespace
}  // namespace zh::trace
