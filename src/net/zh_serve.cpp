// zh_serve — put the simulated Internet on real sockets.
//
//   ./zh_serve --port 0                 # ephemeral port, printed on stdout
//   dig @127.0.0.1 -p $PORT d0.com A +dnssec
//
// Builds the same world every bench uses (bench/bench_common.hpp: scale,
// seed and population from ZH_SCALE / ZH_SEED), binds a net::Frontend on
// --listen/--port, and answers each wire query by dispatching into the
// simulation over its reliable transport (send_tcp: full answers, no
// simulated loss), so the frontend alone decides UDP truncation from the
// client's real EDNS advertisement. The default endpoint is the
// measurement resolver at 1.1.1.1 (Cloudflare profile, as the paper's
// scans); --endpoint A.B.C.D targets any attached node — e.g. the shared
// hosting server — to serve authoritative answers instead.
//
// Everything runs on one thread: world build, event loop and dispatch,
// honouring the one-thread-per-Network contract (simnet/network.hpp).
// SIGINT/SIGTERM drain gracefully (close listeners, flush buffered
// responses); a second signal stops immediately.
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_common.hpp"
#include "net/event_loop.hpp"
#include "net/frontend.hpp"
#include "simnet/address.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: zh_serve [--listen A] [--port N] [--endpoint A.B.C.D]\n"
      "                [--tcp-idle-ms MS] [--pending-budget N]\n"
      "  --listen A          bind address (default 127.0.0.1)\n"
      "  --port N            UDP+TCP port (default 0 = ephemeral, printed)\n"
      "  --endpoint A.B.C.D  simulated node to serve (default 1.1.1.1, the\n"
      "                      measurement resolver)\n"
      "  --tcp-idle-ms MS    reap TCP connections idle longer than MS\n"
      "  --pending-budget N  shed (SERVFAIL + EDE 23) past N buffered\n"
      "                      responses\n"
      "  world shape: ZH_SCALE / ZH_SEED as for every bench\n");
}

std::optional<zh::simnet::IpAddress> parse_ipv4(const char* text) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char tail = 0;
  if (std::sscanf(text, "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4)
    return std::nullopt;
  if (a > 255 || b > 255 || c > 255 || d > 255) return std::nullopt;
  return zh::simnet::IpAddress::v4(
      static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
      static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zh;

  simnet::IpAddress endpoint = simnet::IpAddress::v4(1, 1, 1, 1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage();
      return 0;
    }
    const char* value = nullptr;
    if (std::strncmp(argv[i], "--endpoint=", 11) == 0) {
      value = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--endpoint") == 0 && i + 1 < argc) {
      value = argv[++i];
    }
    if (value) {
      const auto parsed = parse_ipv4(value);
      if (!parsed) {
        std::fprintf(stderr, "bad --endpoint '%s' (want dotted IPv4)\n", value);
        return 2;
      }
      endpoint = *parsed;
    }
  }
  const bench::BenchFlags flags = bench::parse_flags(argc, argv);

  bench::World world = bench::build_world();
  simnet::Network& network = world.internet->network();
  if (!network.is_attached(endpoint)) {
    std::fprintf(stderr, "endpoint %s is not an attached node\n",
                 endpoint.to_string().c_str());
    return 2;
  }
  // The frontend's clients share one source identity inside the simulation
  // (a TEST-NET-3 address no node occupies); server-side query logs
  // attribute all real-socket traffic to it.
  const simnet::IpAddress wire_client = simnet::IpAddress::v4(203, 0, 113, 53);

  net::EventLoop loop;
  if (!loop.valid()) {
    std::fprintf(stderr, "event loop setup failed (epoll/timerfd)\n");
    return 1;
  }

  net::FrontendConfig config;
  config.listen = flags.listen;
  config.port = static_cast<std::uint16_t>(flags.port);
  config.tcp_idle_ms = flags.tcp_idle_ms;
  config.pending_budget = flags.pending_budget;
  net::Frontend frontend(
      [&](const dns::Message& query) {
        return network.send_tcp(wire_client, endpoint, query);
      },
      config);
  if (!frontend.start(loop)) {
    std::fprintf(stderr, "frontend start failed: %s\n",
                 frontend.error().c_str());
    return 1;
  }
  std::printf("# zh_serve: %s on %s port %u (udp+tcp), endpoint %s\n",
              flags.port == 0 ? "ephemeral" : "listening",
              flags.listen.c_str(), frontend.port(),
              endpoint.to_string().c_str());
  std::printf("PORT %u\n", frontend.port());
  std::fflush(stdout);

  // Signals become fd events: block them, read them off a signalfd on the
  // loop thread. First signal drains, second stops outright.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigprocmask(SIG_BLOCK, &mask, nullptr);
  const int signal_fd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  bool draining = false;
  if (signal_fd >= 0) {
    loop.add(signal_fd, EPOLLIN, [&](std::uint32_t) {
      signalfd_siginfo info;
      while (::read(signal_fd, &info, sizeof info) == sizeof info) {
        if (draining) {
          loop.stop();
        } else {
          draining = true;
          std::fprintf(stderr, "# draining (again to stop now)\n");
          frontend.drain_and_stop();
        }
      }
    });
  }

  loop.run();

  const net::FrontendCounters& counters = frontend.counters();
  std::printf(
      "# served udp=%llu tcp=%llu responses=%llu truncated=%llu "
      "malformed=%llu shed=%llu dropped=%llu reaped=%llu rx=%llu tx=%llu\n",
      static_cast<unsigned long long>(counters.udp_queries),
      static_cast<unsigned long long>(counters.tcp_queries),
      static_cast<unsigned long long>(counters.responses),
      static_cast<unsigned long long>(counters.truncated),
      static_cast<unsigned long long>(counters.malformed),
      static_cast<unsigned long long>(counters.shed),
      static_cast<unsigned long long>(counters.dropped),
      static_cast<unsigned long long>(counters.tcp_reaped),
      static_cast<unsigned long long>(counters.rx_bytes),
      static_cast<unsigned long long>(counters.tx_bytes));
  if (signal_fd >= 0) ::close(signal_fd);
  return 0;
}
