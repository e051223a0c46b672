// `serve`: the zh_serve path over loopback. Each repetition builds a
// domain-less world, warms the in-sim 1.1.1.1 resolver, binds a
// net::Frontend on an ephemeral loopback port and runs the net::EventLoop on
// the main thread, dispatching every query into the simulation exactly as
// zh_serve does. One generator thread drives it as a closed loop: kFlows
// UDP sockets, each with kDepth queries outstanding — the shape of the
// scanners (zdns, dnsperf -c/-q) that use the frontend — until kQueries
// have been answered. There is no TCP flow: under this load the frontend's
// UDP read loop never drains, so a pipelined TCP connection on the same
// loop starves for seconds and its queries time out.
//
// The traffic is 70 % positive answers and 30 % NSEC3 NXDOMAIN over a name
// pool drawn from the seed, all warm: the run measures the frontend, the
// codec and the resolver's cache-hit path. Unit: one answered query.
//
// A set-up lasts milliseconds, so each untraced repetition first times
// kSetups - 1 more set-ups for setup_s.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc.hpp"
#include "common.hpp"
#include "net/event_loop.hpp"
#include "net/frontend.hpp"
#include "net/wire_client.hpp"
#include "shims.hpp"
#include "spans.hpp"
#include "testbed/internet.hpp"

namespace perfbench {
namespace {

using namespace zh;

constexpr int kSetups = 4;  // timed per untraced repetition
constexpr std::uint64_t kQueries = 50'000;  // answered per repetition
constexpr int kFlows = 4;  // UDP sockets
constexpr int kDepth = 4;  // outstanding queries per socket
constexpr std::size_t kPositiveNames = 48;
constexpr std::size_t kNegativeNames = 48;
constexpr double kPositiveShare = 0.7;
constexpr std::int64_t kClientTimeoutNs = 1'000'000'000;
// Query ids carry (sequence, flow, slot) with two bits each for flow/slot.
static_assert(kFlows == 4 && kDepth == 4);

/// splitmix64 stream: the name pool and the traffic draw.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) / 9007199254740992.0; }
};

struct PoolName {
  dns::Name qname;
  bool positive = true;
  dns::Rcode expected = dns::Rcode::kNoError;  // what the in-sim resolver says
  std::vector<std::uint8_t> query;     // wire query, id patched per send
  std::vector<std::uint8_t> response;  // reference answer from the warm pass
};

/// Positive names: each valid probe zone's apex and www A records.
/// Negative names: random labels under the zones the Cloudflare-profile
/// resolver validates (≤ 150 iterations, live signatures) — NXDOMAIN with an
/// NSEC3 proof.
std::vector<PoolName> make_pool(std::uint64_t seed) {
  std::vector<testbed::ProbeZone> positive_zones, negative_zones;
  for (const testbed::ProbeZone& zone : testbed::probe_zone_specs()) {
    if (zone.expired || zone.nsec3_expired) continue;
    positive_zones.push_back(zone);
    if (zone.iterations <= 150) negative_zones.push_back(zone);
  }
  Rng rng{seed ^ 0x5e7e5e7eull};
  std::vector<PoolName> pool;
  for (std::size_t i = 0; i < kPositiveNames; ++i) {
    const testbed::ProbeZone& zone =
        positive_zones[rng.next() % positive_zones.size()];
    PoolName name;
    name.qname = rng.next() % 2 == 0 ? zone.apex : *zone.apex.prepended("www");
    pool.push_back(std::move(name));
  }
  for (std::size_t i = 0; i < kNegativeNames; ++i) {
    const testbed::ProbeZone& zone =
        negative_zones[rng.next() % negative_zones.size()];
    std::string label = "nx";
    for (int c = 0; c < 8; ++c)
      label += static_cast<char>('a' + rng.next() % 26);
    PoolName name;
    name.qname = *zone.apex.prepended(label);
    name.positive = false;
    pool.push_back(std::move(name));
  }
  for (PoolName& name : pool)
    name.query =
        dns::Message::make_query(0, name.qname, dns::RrType::kA).to_wire();
  return pool;
}

/// One built, warmed and bound frontend world.
struct Server {
  double build_heap_mb = 0.0;
  std::unique_ptr<testbed::Internet> internet;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<net::Frontend> frontend;
};

const simnet::IpAddress kEndpoint = simnet::IpAddress::v4(1, 1, 1, 1);
/// The frontend's clients share one in-sim source address (as zh_serve).
const simnet::IpAddress kWireClient = simnet::IpAddress::v4(203, 0, 113, 53);

/// Builds, warms and binds one frontend world on the calling thread, which
/// runs its loop.
std::unique_ptr<Server> set_up(std::vector<PoolName>& pool) {
  auto server = std::make_unique<Server>();
  const double heap_start = heap_in_use_mib();
  server->internet = std::make_unique<testbed::Internet>();
  {
    const ScopedSpan span(SpanKind::kInstall);
    testbed::add_probe_infrastructure(*server->internet);
  }
  {
    const ScopedSpan span(SpanKind::kBuild);
    server->internet->build();
  }
  server->build_heap_mb = heap_in_use_mib() - heap_start;
  simnet::Network& network = server->internet->network();
  server->resolver = server->internet->make_resolver(
      resolver::ResolverProfile::cloudflare(), kEndpoint);
  {
    const ScopedSpan span(SpanKind::kWarm);
    for (PoolName& name : pool) {
      const auto response = network.send_tcp(
          kWireClient, kEndpoint,
          dns::Message::make_query(0, name.qname, dns::RrType::kA));
      name.expected = response ? response->header.rcode : dns::Rcode::kServFail;
    }
  }
  server->loop = std::make_unique<net::EventLoop>();
  simnet::Network* sim = &network;
  server->frontend = std::make_unique<net::Frontend>(
      [sim](const dns::Message& query) {
        const ScopedSpan span(SpanKind::kNetDispatch);
        return sim->send_tcp(kWireClient, kEndpoint, query);
      },
      net::FrontendConfig{});
  {
    const ScopedSpan span(SpanKind::kNetStart);
    if (!server->loop->valid() || !server->frontend->start(*server->loop))
      throw std::runtime_error("frontend start failed: " +
                               server->frontend->error());
  }
  return server;
}

/// What the generator measured. Written by the generator thread, read by
/// the main thread after joining it.
struct Measured {
  LatencyHistogram latency;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::int64_t start_ns = 0;  // first measured query sent
  std::int64_t end_ns = 0;    // last one settled
  std::string check_failure;  // first failed output check
  std::string error;          // socket/setup failure
};

int connect_udp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// The closed-loop generator: kFlows flows × kDepth outstanding queries.
class Generator {
 public:
  Generator(std::vector<PoolName>& pool, std::uint16_t port, std::uint64_t seed,
            Measured& out)
      : pool_(pool), port_(port), rng_{seed}, out_(out) {}
  ~Generator() {
    for (Flow& flow : flows_)
      if (flow.fd >= 0) ::close(flow.fd);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Asks every pool name once over UDP, checks the answer against the
  /// in-sim rcode and keeps it as the reference bytes.
  bool warm() {
    const net::WireClient client("127.0.0.1", port_);
    for (PoolName& name : pool_) {
      const net::ClientResult result = client.query_udp(
          dns::Message::make_query(0, name.qname, dns::RrType::kA), 2000);
      if (!result.message) {
        out_.error = "warm query failed: " + result.error;
        return false;
      }
      const dns::Message& answer = *result.message;
      const bool shaped = name.positive
                              ? answer.header.rcode == dns::Rcode::kNoError &&
                                    !answer.answers.empty()
                              : answer.header.rcode == dns::Rcode::kNxDomain;
      if (answer.header.rcode != name.expected || !shaped) {
        out_.check_failure = "unexpected answer for " + name.qname.to_string();
        return false;
      }
      name.response = result.wire;
    }
    return true;
  }

  bool open() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return false;
    for (int f = 0; f < kFlows; ++f) {
      Flow& flow = flows_[f];
      flow.fd = connect_udp(port_);
      if (flow.fd < 0) return false;
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u32 = static_cast<std::uint32_t>(f);
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, flow.fd, &event) != 0)
        return false;
    }
    return true;
  }

  /// Runs the closed loop until `queries` have been sent and settled.
  void run(std::uint64_t queries) {
    to_send_ = queries;
    out_.start_ns = now_ns();
    for (int f = 0; f < kFlows; ++f)
      for (int s = 0; s < kDepth; ++s) send(f, s);
    std::array<epoll_event, kFlows> events;
    while (busy_ > 0) {
      const int n = ::epoll_wait(epoll_fd_, events.data(), kFlows, 10);
      for (int i = 0; i < n; ++i) receive(static_cast<int>(events[i].data.u32));
      expire(now_ns());
    }
    out_.end_ns = now_ns();
  }

 private:
  struct Slot {
    bool busy = false;
    std::uint16_t id = 0;
    std::size_t name = 0;
    std::int64_t sent_ns = 0;
  };
  struct Flow {
    int fd = -1;
    std::array<Slot, kDepth> slots;
  };

  void fail(const std::string& what) {
    ++out_.failed;
    if (out_.check_failure.empty()) out_.check_failure = what;
  }

  void send(int f, int s) {
    if (to_send_ == 0) return;
    --to_send_;
    Flow& flow = flows_[f];
    Slot& slot = flow.slots[s];
    slot.name = rng_.unit() < kPositiveShare
                    ? rng_.next() % kPositiveNames
                    : kPositiveNames + rng_.next() % kNegativeNames;
    ++sequence_;
    slot.id = static_cast<std::uint16_t>((sequence_ << 4) | (f << 2) | s);
    wire_ = pool_[slot.name].query;  // reuses wire_'s buffer: no allocation
    wire_[0] = static_cast<std::uint8_t>(slot.id >> 8);
    wire_[1] = static_cast<std::uint8_t>(slot.id & 0xff);
    slot.sent_ns = now_ns();
    slot.busy = true;
    ++busy_;
    ++out_.sent;
    while (::send(flow.fd, wire_.data(), wire_.size(), 0) < 0) {
      if (errno != EINTR && errno != EAGAIN) {
        fail(std::string("send: ") + std::strerror(errno));
        return;
      }
    }
  }

  void receive(int f) {
    std::uint8_t buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(flows_[f].fd, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      answer(f, buffer, static_cast<std::size_t>(n));
    }
  }

  /// Matches one response to its outstanding query and checks its bytes
  /// against the reference answer for that name (same bytes after the id).
  void answer(int f, const std::uint8_t* bytes, std::size_t size) {
    const std::int64_t now = now_ns();
    if (size < 2) {
      fail("short response");
      return;
    }
    const std::uint16_t id =
        static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
    const int s = id & 3;
    Slot& slot = flows_[f].slots[s];
    if (((id >> 2) & 3) != f || !slot.busy || slot.id != id) {
      fail("response with an unexpected id");
      return;
    }
    slot.busy = false;
    --busy_;
    const std::vector<std::uint8_t>& reference = pool_[slot.name].response;
    if (size != reference.size() ||
        std::memcmp(bytes + 2, reference.data() + 2, size - 2) != 0) {
      fail("wrong answer for " + pool_[slot.name].qname.to_string());
    } else {
      out_.latency.add(now - slot.sent_ns);
    }
    send(f, s);
  }

  void expire(std::int64_t now) {
    for (int f = 0; f < kFlows; ++f) {
      for (int s = 0; s < kDepth; ++s) {
        Slot& slot = flows_[f].slots[s];
        if (!slot.busy || now - slot.sent_ns < kClientTimeoutNs) continue;
        fail("no answer within the client timeout");
        slot.busy = false;
        --busy_;
        send(f, s);
      }
    }
  }

  std::vector<PoolName>& pool_;
  std::uint16_t port_;
  Rng rng_;
  Measured& out_;
  int epoll_fd_ = -1;
  std::array<Flow, kFlows> flows_;
  std::vector<std::uint8_t> wire_;
  std::uint64_t sequence_ = 0;
  std::uint64_t to_send_ = 0;
  int busy_ = 0;
};

std::uint64_t digest(const std::vector<PoolName>& pool) {
  std::uint64_t hash = fnv1a({});
  for (const PoolName& name : pool) {
    const std::string text = name.qname.to_string();
    hash = fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()},
                 hash);
    if (name.response.size() > 2)
      hash = fnv1a({name.response.data() + 2, name.response.size() - 2}, hash);
  }
  return hash;
}

/// The counters behind serve's per-layer metrics, read on the loop thread.
struct Counters {
  resolver::ResolverStats resolver;
  net::FrontendCounters frontend;
  std::uint64_t deliveries = 0;
  std::uint64_t tcp_queries = 0;
  std::uint64_t truncations = 0;
  std::uint64_t sha1_blocks = 0;
  std::uint64_t sha1_physical_blocks = 0;
  std::uint64_t nsec3_hashes = 0;
  double loop_cpu_s = 0.0;
  std::uint64_t allocs = 0;
};

Counters read_counters(const Server& server, const ShimSink& sink) {
  simnet::Network& network = server.internet->network();
  Counters counters;
  counters.resolver = server.resolver->stats();
  counters.frontend = server.frontend->counters();
  counters.deliveries = network.queries_sent();
  counters.tcp_queries = network.tcp_queries();
  counters.truncations = network.truncations();
  counters.sha1_blocks = sink.sha1_blocks;
  counters.sha1_physical_blocks = sink.sha1_physical_blocks;
  counters.nsec3_hashes = sink.nsec3_hashes;
  counters.loop_cpu_s = thread_cpu_s();
  counters.allocs = alloc::process_count();
  return counters;
}

/// Adds one traced repetition's counter movement, measured phase only, to
/// the per-layer totals.
void add_counters(LayerNumbers& layers, const Counters& before,
                  const Counters& after) {
  const auto delta = [](std::uint64_t to, std::uint64_t from) {
    return static_cast<double>(to - from);
  };
  layers.measured_queries +=
      delta(after.frontend.responses, before.frontend.responses);
  layers.resolver_queries += delta(after.resolver.queries_handled,
                                   before.resolver.queries_handled);
  layers.cache_hits +=
      delta(after.resolver.cache_hits, before.resolver.cache_hits);
  layers.upstream_queries +=
      delta(after.resolver.upstream_queries, before.resolver.upstream_queries);
  layers.sha1_blocks += delta(after.sha1_blocks, before.sha1_blocks);
  layers.sha1_physical_blocks +=
      delta(after.sha1_physical_blocks, before.sha1_physical_blocks);
  layers.nsec3_hashes += delta(after.nsec3_hashes, before.nsec3_hashes);
  layers.deliveries += delta(after.deliveries, before.deliveries);
  layers.tcp_queries += delta(after.tcp_queries, before.tcp_queries);
  layers.truncations += delta(after.truncations, before.truncations);
  layers.measured_allocs += delta(after.allocs, before.allocs);
  layers.loop_cpu_s += after.loop_cpu_s - before.loop_cpu_s;
  layers.tx_bytes += delta(after.frontend.tx_bytes, before.frontend.tx_bytes);
  layers.shed += delta(after.frontend.shed, before.frontend.shed);
  layers.truncated +=
      delta(after.frontend.truncated, before.frontend.truncated);
}

}  // namespace

Report run_serve(const RunOptions& options) {
  std::vector<PoolName> pool = make_pool(options.seed);
  bool described = false;
  return run_repetitions(options, "serve", [&](bool traced, Report& report,
                                               LatencyHistogram& latency,
                                               LayerNumbers& layers) {
    Repetition rep;
    if (!traced) {
      for (int i = 1; i < kSetups; ++i) {
        cold_chain_memo();
        const std::int64_t start = now_ns();
        const std::unique_ptr<Server> server = set_up(pool);
        rep.setup_s.push_back(seconds_between(start, now_ns()));
      }
    }
    ShimSink sink;
    cold_chain_memo();
    rep.start_ns = now_ns();
    const double cpu_start = thread_cpu_s();
    const std::unique_ptr<Server> server = set_up(pool);
    if (traced) {
      attach_resolver_shim(server->internet->network(), *server->resolver,
                           sink);
    } else {
      rep.setup_s.push_back(seconds_between(rep.start_ns, now_ns()));
    }

    // The generator warms its reference answers, then waits until this
    // (the loop) thread has read the counters before it measures.
    enum : int { kWarming, kWarm, kMeasuring, kDone };
    Measured measured;
    std::atomic<int> phase{kWarming};
    std::thread generator([&] {
      try {
        Generator gen(pool, server->frontend->port(), options.seed, measured);
        if (gen.warm() && gen.open()) {
          phase.store(kWarm, std::memory_order_release);
          while (phase.load(std::memory_order_acquire) != kMeasuring)
            std::this_thread::yield();
          gen.run(kQueries);
        } else if (measured.error.empty() && measured.check_failure.empty()) {
          measured.error = "could not open the client sockets";
        }
      } catch (const std::exception& error) {
        measured.error = error.what();
      }
      phase.store(kDone, std::memory_order_release);
    });
    while (phase.load(std::memory_order_acquire) == kWarming)
      server->loop->poll(10);
    const Counters before = read_counters(*server, sink);
    {
      const ScopedSpan span(SpanKind::kNetLoop);
      int warm = kWarm;
      phase.compare_exchange_strong(warm, kMeasuring,
                                    std::memory_order_acq_rel);
      while (phase.load(std::memory_order_acquire) != kDone)
        server->loop->poll(10);
    }
    generator.join();
    rep.cpu_s = thread_cpu_s() - cpu_start;

    if (!measured.error.empty()) throw std::runtime_error(measured.error);
    if (!measured.check_failure.empty())
      report.fail_check(measured.check_failure);
    report.failed += measured.failed;
    if (!described) {
      described = true;
      std::printf("# serve: %d UDP flows x %d outstanding, %zu names, %llu "
                  "queries per repetition\n",
                  kFlows, kDepth, pool.size(),
                  static_cast<unsigned long long>(kQueries));
    }
    latency = std::move(measured.latency);
    if (traced) {
      add_counters(layers, before, read_counters(*server, sink));
      layers.build_rss_mb += server->build_heap_mb;
    }
    rep.units = measured.sent;
    rep.digest = digest(pool);
    rep.setup_end_ns = measured.start_ns;
    rep.end_ns = measured.end_ns;
    return rep;
  });
}

}  // namespace perfbench
