// Unit tests for the virtual-time layer: Duration/Clock algebra, the
// splitmix mixer, RetryPolicy backoff, the latency and service models, the
// client-side exchange() retransmission loop, and the resolver's per-query
// deadline / drop-above-limit behaviour end to end.
#include <gtest/gtest.h>

#include "crypto/cost_meter.hpp"
#include "resolver/policy.hpp"
#include "scanner/resolver_prober.hpp"
#include "simnet/exchange.hpp"
#include "simnet/network.hpp"
#include "simtime/latency.hpp"
#include "simtime/simtime.hpp"
#include "testbed/internet.hpp"

namespace zh::simtime {
namespace {

using dns::Message;
using dns::Name;
using dns::RrType;
using simnet::IpAddress;

TEST(Duration, Algebra) {
  EXPECT_EQ(Duration::from_seconds(2).nanos(), 2000000000ll);
  EXPECT_EQ(Duration::from_ms(3).micros(), 3000);
  EXPECT_EQ(Duration::from_us(5).nanos(), 5000);
  EXPECT_EQ((Duration::from_ms(2) + Duration::from_ms(3)).millis(), 5);
  EXPECT_EQ((Duration::from_ms(5) - Duration::from_ms(2)).millis(), 3);
  EXPECT_EQ((Duration::from_ms(2) * 8).millis(), 16);
  EXPECT_LT(Duration::from_ms(1), Duration::from_ms(2));
  EXPECT_TRUE(Duration{}.zero());
  Duration d = Duration::from_ms(1);
  d += Duration::from_ms(1);
  EXPECT_EQ(d.millis(), 2);
}

TEST(Clock, AdvanceAndReset) {
  Clock clock;
  EXPECT_TRUE(clock.now().zero());
  clock.advance(Duration::from_ms(7));
  clock.advance(Duration::from_ms(3));
  EXPECT_EQ(clock.now().millis(), 10);
  clock.reset();
  EXPECT_TRUE(clock.now().zero());
}

TEST(Mix64, KnownVector) {
  // splitmix64's published first output for seed 0.
  EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_NE(mix64(1), mix64(2));
  const double u = unit_double(mix64(123));
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(Fnv1a, StableAndSensitive) {
  EXPECT_EQ(fnv1a(""), 1469598103934665603ull);
  EXPECT_EQ(fnv1a("probe-7"), fnv1a("probe-7"));
  EXPECT_NE(fnv1a("probe-7"), fnv1a("probe-8"));
}

TEST(RetryPolicy, ExponentialBackoffWithCap) {
  const RetryPolicy policy;  // zdns defaults: 3 attempts, 2 s, x2, 16 s cap
  EXPECT_EQ(policy.attempt_timeout(0).millis(), 2000);
  EXPECT_EQ(policy.attempt_timeout(1).millis(), 4000);
  EXPECT_EQ(policy.attempt_timeout(2).millis(), 8000);
  EXPECT_EQ(policy.attempt_timeout(3).millis(), 16000);
  EXPECT_EQ(policy.attempt_timeout(10).millis(), 16000);  // capped
}

TEST(LatencyModel, InactiveByDefault) {
  const LatencyModel model;
  EXPECT_FALSE(model.active());
  EXPECT_TRUE(model
                  .sample(IpAddress::v4(1, 1, 1, 1), IpAddress::v4(2, 2, 2, 2),
                          0, 0)
                  .zero());
}

TEST(LatencyModel, DeterministicAndBounded) {
  const LatencyModel model(Duration::from_ms(20), Duration::from_ms(5),
                           /*seed=*/7);
  const auto a = IpAddress::v4(10, 0, 0, 1);
  const auto b = IpAddress::v4(10, 0, 0, 2);
  const Duration first = model.sample(a, b, 3, 0);
  EXPECT_EQ(first, model.sample(a, b, 3, 0));  // pure function
  EXPECT_GE(first, Duration::from_ms(20));
  EXPECT_LE(first, Duration::from_ms(25));
  // Different sequence / flow / link draw different jitter (with a 5 ms
  // range the chance of a coincidental triple collision is negligible).
  EXPECT_TRUE(model.sample(a, b, 3, 1) != first ||
              model.sample(a, b, 4, 0) != first ||
              model.sample(b, a, 3, 0) != first);
}

TEST(LatencyModel, ZeroJitterIsExactBase) {
  const LatencyModel model(Duration::from_ms(30), Duration{}, 7);
  EXPECT_EQ(model
                .sample(IpAddress::v4(10, 0, 0, 1), IpAddress::v4(10, 0, 0, 2),
                        1, 1)
                .millis(),
            30);
}

TEST(ServiceModel, ConvertsBlocksToDelay) {
  const ServiceModel off{};
  EXPECT_FALSE(off.active());
  EXPECT_TRUE(off.cost(1000).zero());
  const ServiceModel model{.per_sha1_block = Duration::from_us(2)};
  EXPECT_TRUE(model.active());
  EXPECT_EQ(model.cost(500).millis(), 1);
}

// --- Network integration: clock movement on deliveries -------------------

simnet::MessageHandler echo_handler(std::uint64_t sha1_blocks = 0) {
  return [sha1_blocks](const Message& q, const IpAddress&) {
    if (sha1_blocks > 0) crypto::CostMeter::add_sha1_blocks(sha1_blocks);
    return std::optional<Message>(Message::make_response(q));
  };
}

TEST(NetworkTime, DeliveryAdvancesRttPlusServiceCost) {
  simnet::Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  const auto client = IpAddress::v4(203, 0, 113, 1);
  network.attach(server, echo_handler(/*sha1_blocks=*/100));
  network.set_latency_model(
      LatencyModel(Duration::from_ms(10), Duration{}, 7));
  network.set_service_model({.per_sha1_block = Duration::from_us(1)});

  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  ASSERT_TRUE(network.send(client, server, query));
  // 10 ms RTT + 100 blocks x 1 µs = 10.1 ms.
  EXPECT_EQ(network.clock().now().micros(), 10100);
  EXPECT_EQ(network.last_elapsed().micros(), 10100);

  // TCP pays the RTT twice (connection setup).
  ASSERT_TRUE(network.send_tcp(client, server, query));
  EXPECT_EQ(network.last_elapsed().micros(), 20100);
}

TEST(NetworkTime, NestedDeliveriesChargeEachHandlerOnce) {
  simnet::Network network;
  const auto a = IpAddress::v4(192, 0, 2, 1);  // outer server
  const auto b = IpAddress::v4(192, 0, 2, 2);  // inner server
  const auto client = IpAddress::v4(203, 0, 113, 1);
  network.attach(b, echo_handler(/*sha1_blocks=*/40));
  network.attach(a, [&network, b](const Message& q, const IpAddress&) {
    // The outer handler does 100 blocks of its own work and forwards to b;
    // b's 40 blocks are converted to delay during the nested delivery and
    // must not be double-charged to a.
    crypto::CostMeter::add_sha1_blocks(100);
    (void)network.send(IpAddress::v4(192, 0, 2, 1), b, q);
    return std::optional<Message>(Message::make_response(q));
  });
  network.set_service_model({.per_sha1_block = Duration::from_us(1)});

  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  ASSERT_TRUE(network.send(client, a, query));
  // 100 (a's own) + 40 (b's own) µs, each exactly once; no RTT model.
  EXPECT_EQ(network.clock().now().micros(), 140);
}

TEST(NetworkTime, InactiveModelsNeverMoveTheClock) {
  simnet::Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, echo_handler(/*sha1_blocks=*/1000));
  EXPECT_FALSE(network.time_models_active());
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  ASSERT_TRUE(network.send(IpAddress::v4(9, 9, 9, 9), server, query));
  EXPECT_TRUE(network.clock().now().zero());
  EXPECT_TRUE(network.last_elapsed().zero());
}

// --- exchange(): the zdns-style client loop ------------------------------

TEST(Exchange, TotalLossTimesOutAfterBackoffLadder) {
  simnet::Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, echo_handler());
  network.set_loss(1.0, /*seed=*/3);
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  const simnet::ExchangeOutcome outcome =
      simnet::exchange(network, IpAddress::v4(9, 9, 9, 9), server, query);
  EXPECT_FALSE(outcome.response);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_EQ(outcome.attempts, 3u);
  // The client waited out the full ladder: 2 + 4 + 8 s.
  EXPECT_EQ(outcome.elapsed.millis(), 14000);
  EXPECT_EQ(network.clock().now().millis(), 14000);
}

TEST(Exchange, UnreachableFailsFastWithoutWaiting) {
  simnet::Network network;
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  const simnet::ExchangeOutcome outcome = simnet::exchange(
      network, IpAddress::v4(9, 9, 9, 9), IpAddress::v4(1, 2, 3, 4), query);
  EXPECT_FALSE(outcome.response);
  EXPECT_TRUE(outcome.unreachable);
  EXPECT_FALSE(outcome.timed_out);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_TRUE(outcome.elapsed.zero());
}

TEST(Exchange, RetransmissionAbsorbsPartialLoss) {
  simnet::Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, echo_handler());
  network.set_loss(0.5, /*seed=*/42);
  const Message query =
      Message::make_query(1, Name::must_parse("example.com"), RrType::kA);
  int answered = 0;
  for (int i = 0; i < 200; ++i) {
    network.set_flow(static_cast<std::uint64_t>(i));
    if (simnet::exchange(network, IpAddress::v4(9, 9, 9, 9), server, query)
            .response)
      ++answered;
  }
  // P(3 consecutive drops) = 1/8: the vast majority must get through.
  EXPECT_GT(answered, 150);
}

TEST(Exchange, TruncationFallsBackToTcp) {
  simnet::Network network;
  const auto server = IpAddress::v4(192, 0, 2, 1);
  network.attach(server, [](const Message& q, const IpAddress&) {
    Message response = Message::make_response(q);
    for (int i = 0; i < 60; ++i) {
      response.answers.push_back(dns::make_txt(q.questions.front().name, 60,
                                               std::string(100, 'x')));
    }
    return std::optional<Message>(response);
  });
  Message query =
      Message::make_query(5, Name::must_parse("big.example"), RrType::kTxt);
  query.edns->udp_payload_size = 1232;
  const simnet::ExchangeOutcome outcome =
      simnet::exchange(network, IpAddress::v4(9, 9, 9, 9), server, query);
  ASSERT_TRUE(outcome.response);
  EXPECT_TRUE(outcome.tcp_fallback);
  EXPECT_FALSE(outcome.response->header.tc);
  EXPECT_EQ(outcome.response->answers.size(), 60u);
  EXPECT_EQ(outcome.attempts, 2u);  // the UDP try + the TCP retry
}

// --- Resolver deadlines and the drop-above-limit cohort ------------------

/// Probe infrastructure plus one resolver of the given profile.
struct TimedWorld {
  std::unique_ptr<testbed::Internet> internet;
  std::vector<testbed::ProbeZone> probe_zones;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
};

TimedWorld make_timed_world(const resolver::ResolverProfile& profile) {
  TimedWorld world;
  world.internet = std::make_unique<testbed::Internet>();
  world.probe_zones = testbed::add_probe_infrastructure(*world.internet);
  world.internet->build();
  world.resolver = world.internet->make_resolver(
      profile, IpAddress::v4(203, 0, 113, 53));
  return world;
}

TEST(ResolverDeadline, BlownDeadlineProducesServfail) {
  auto profile = resolver::ResolverProfile::cloudflare();
  profile.query_deadline = Duration::from_ms(1);
  profile.drop_on_timeout = false;
  TimedWorld world = make_timed_world(profile);
  // 10 ms per hop: any upstream round trip blows the 1 ms budget.
  world.internet->network().set_latency_model(
      LatencyModel(Duration::from_ms(10), Duration{}, 7));

  const Message query = Message::make_query(
      1, Name::must_parse("a.wc.valid.rfc9276-in-the-wild.com"), RrType::kA,
      /*dnssec_ok=*/true);
  const auto response = world.internet->network().send(
      IpAddress::v4(203, 0, 113, 9), world.resolver->address(), query);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->header.rcode, dns::Rcode::kServFail);
  EXPECT_GE(world.resolver->stats().servfails, 1u);
}

TEST(ResolverDeadline, DropOnTimeoutLooksLikeSilence) {
  auto profile = resolver::ResolverProfile::cloudflare();
  profile.query_deadline = Duration::from_ms(1);
  profile.drop_on_timeout = true;
  TimedWorld world = make_timed_world(profile);
  world.internet->network().set_latency_model(
      LatencyModel(Duration::from_ms(10), Duration{}, 7));

  const Message query = Message::make_query(
      1, Name::must_parse("a.wc.valid.rfc9276-in-the-wild.com"), RrType::kA,
      /*dnssec_ok=*/true);
  RetryPolicy fast;
  fast.attempts = 2;
  fast.timeout = Duration::from_ms(100);
  const simnet::ExchangeOutcome outcome =
      simnet::exchange(world.internet->network(), IpAddress::v4(203, 0, 113, 9),
                       world.resolver->address(), query, fast);
  EXPECT_FALSE(outcome.response);
  EXPECT_TRUE(outcome.timed_out);
}

TEST(ResolverDeadline, LimitDropperObservedAsStopAnswering) {
  TimedWorld world =
      make_timed_world(resolver::ResolverProfile::limit_dropper());
  RetryPolicy fast;
  fast.attempts = 2;
  fast.timeout = Duration::from_ms(100);
  scanner::ResolverProber prober(world.internet->network(),
                                 IpAddress::v4(203, 0, 113, 9),
                                 world.probe_zones, fast);
  const scanner::ResolverProbeResult result =
      prober.probe(world.resolver->address(), "dropper");
  EXPECT_TRUE(result.validator);
  // Below the 150-iteration limit the dropper answers NXDOMAIN with AD...
  const auto at150 = result.sweep.find(150);
  ASSERT_NE(at150, result.sweep.end());
  EXPECT_TRUE(at150->second.responsive);
  EXPECT_EQ(at150->second.rcode, dns::Rcode::kNxDomain);
  EXPECT_TRUE(at150->second.ad);
  // ... and above it, it stops answering: a client-side timeout, not an
  // RCODE — the prober must record the onset, not infer a SERVFAIL limit.
  ASSERT_TRUE(result.first_timeout);
  EXPECT_EQ(*result.first_timeout, 151);
  EXPECT_FALSE(result.implements_item8);
  const auto at151 = result.sweep.find(151);
  ASSERT_NE(at151, result.sweep.end());
  EXPECT_FALSE(at151->second.responsive);
  EXPECT_TRUE(at151->second.timed_out);
  EXPECT_GT(result.timeouts, 0u);
}

}  // namespace
}  // namespace zh::simtime
