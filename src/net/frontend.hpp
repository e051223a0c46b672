// zh::net::Frontend — the DNS front door that puts the simulated Internet
// on real ports.
//
// One Frontend binds a UDP socket and a TCP listener on the same
// (configurable or ephemeral) port and answers real wire queries — from
// `dig`, `dnsperf`, zdns, or the bundled WireClient — by dispatching the
// decoded message into a caller-supplied handler, normally a closure over
// testbed::Internet that delivers to a simulated node (the recursive
// resolver endpoint or any authoritative). The handler path is therefore
// exactly the one the in-sim engines use; the frontend only owns the
// transport realism:
//
//   * hardened decode — untrusted bytes go through dns::Message::decode;
//     malformed datagrams are counted and dropped, malformed TCP frames
//     close the stream (typed errors, never a crash: tests/test_frontend
//     fires the malformed corpus at a live frontend under ASan/UBSan);
//   * EDNS-honest UDP — responses larger than the client's advertised
//     payload size (clamped to ≥ 512, RFC 6891 §6.2.3) come back with TC
//     and empty sections, mirroring simnet::Network::send, so a UDP→TCP
//     retry yields bytes identical to a TCP-first ask;
//   * TCP framing — RFC 1035 §4.2.2 two-byte length prefixes, per
//     connection read/write buffering with partial-write continuation,
//     and idle-connection reaping on the event-loop timer;
//   * overload shedding — a bounded pending-response budget: when more
//     responses sit unflushed than the budget allows, new queries are
//     answered SERVFAIL + EDE 23 ("server overloaded"), the same shape a
//     simtime::ServiceQueue shed has on the virtual path.
//
// Threading: a Frontend lives on the event-loop thread, like the Network
// it fronts. Counters may be read from another thread only after the loop
// has been stopped and joined.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/message.hpp"
#include "trace/trace.hpp"

namespace zh::net {

class EventLoop;

/// Answers one decoded query; nullopt = drop (the client sees a timeout),
/// exactly like a simnet::MessageHandler.
using Dispatch =
    std::function<std::optional<dns::Message>(const dns::Message& query)>;

struct FrontendConfig {
  /// Listen address (dotted IPv4). 127.0.0.1 keeps the testbed loopback-
  /// only by default; 0.0.0.0 serves a LAN.
  std::string listen = "127.0.0.1";
  /// Port for both UDP and TCP; 0 picks an ephemeral port (read it back
  /// with port()).
  std::uint16_t port = 0;
  /// TCP connections idle longer than this are reaped. ≤0 disables.
  std::int64_t tcp_idle_ms = 10000;
  /// Max responses buffered-but-unflushed across all transports before new
  /// queries are shed with SERVFAIL + EDE 23.
  std::size_t pending_budget = 512;
  /// Cap applied on top of the client's advertised EDNS payload size
  /// (0 = honour the client fully). The advertised size is always clamped
  /// to ≥ 512 per RFC 6891.
  std::size_t max_udp_payload = 0;
  /// Test knob: SO_SNDBUF for accepted TCP sockets (0 = kernel default).
  /// Shrinking it makes write backpressure — and thus shedding —
  /// reproducible on loopback.
  int tcp_sndbuf = 0;
};

/// Plain counters for tests and the zh_serve exit report. The same events
/// tick `net.*` metrics on the attached tracer.
struct FrontendCounters {
  std::uint64_t udp_queries = 0;   // well-formed queries received over UDP
  std::uint64_t tcp_queries = 0;   // well-formed queries received over TCP
  std::uint64_t responses = 0;     // responses handed to the kernel or buffer
  std::uint64_t truncated = 0;     // UDP answers sent with TC set
  std::uint64_t malformed = 0;     // datagrams/frames Message::decode rejected
  std::uint64_t shed = 0;          // queries answered SERVFAIL over budget
  std::uint64_t dropped = 0;       // dispatch returned nullopt (no answer)
  std::uint64_t tcp_accepts = 0;
  std::uint64_t tcp_reaped = 0;    // connections closed by the idle reaper
  std::uint64_t rx_bytes = 0;      // payload bytes received (both transports)
  std::uint64_t tx_bytes = 0;      // payload bytes sent (both transports)
};

class Frontend {
 public:
  explicit Frontend(Dispatch dispatch, FrontendConfig config = {},
                    trace::Tracer* tracer = nullptr);
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds UDP+TCP and registers with the loop. False on failure — see
  /// error(). Call once.
  bool start(EventLoop& loop);

  /// The bound port (after start); the same for UDP and TCP.
  std::uint16_t port() const noexcept { return port_; }

  const std::string& error() const noexcept { return error_; }

  const FrontendCounters& counters() const noexcept { return counters_; }

  /// Open TCP connections right now (post-reap view).
  std::size_t open_connections() const noexcept { return connections_.size(); }

  /// Graceful drain for SIGINT/SIGTERM: closes the listeners (no new
  /// queries), flushes buffered responses, then stops the loop — after at
  /// most `grace_ms` even if some client never drains its socket.
  void drain_and_stop(std::int64_t grace_ms = 2000);

 private:
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> in;   // unparsed stream bytes
    std::vector<std::uint8_t> out;  // unflushed framed responses
    std::size_t out_offset = 0;     // bytes of `out` already written
    std::size_t queued_responses = 0;
    std::int64_t last_active_ms = 0;
    bool want_write = false;
  };

  /// Outcome of serving one well-formed query that wants a reply.
  struct Served {
    dns::Message query;
    dns::Message response;
  };

  bool bind_pair();
  void on_udp_readable();
  void on_udp_writable();
  void on_accept();
  void on_connection(int fd, std::uint32_t events);
  void parse_frames(Connection& conn);
  /// Decode + budget check + dispatch; nullopt when nothing should be sent
  /// (malformed input or a dispatch drop).
  std::optional<Served> serve(std::span<const std::uint8_t> wire, bool tcp);
  /// Applies the RFC 6891 payload limit; returns the bytes to send.
  std::vector<std::uint8_t> udp_response_wire(const dns::Message& query,
                                              dns::Message response);
  void enqueue_tcp(Connection& conn, const std::vector<std::uint8_t>& wire);
  bool flush_tcp(Connection& conn);
  /// Closes the socket mid-parse and marks `conn` dead (fd -1); the caller
  /// erases it once parse_frames returns.
  void stop_serving(Connection& conn);
  void close_connection(int fd, bool reaped);
  void schedule_reap();
  void maybe_finish_drain();
  void drain_tick();
  std::size_t pending_responses() const noexcept { return pending_; }
  void count(std::uint64_t FrontendCounters::* field, const char* metric,
             std::uint64_t n = 1);

  Dispatch dispatch_;
  FrontendConfig config_;
  trace::Tracer* tracer_ = nullptr;
  EventLoop* loop_ = nullptr;
  int udp_fd_ = -1;
  int tcp_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
  FrontendCounters counters_;
  std::unordered_map<int, Connection> connections_;
  /// UDP responses the kernel would not take synchronously (EAGAIN).
  struct PendingDatagram {
    std::vector<std::uint8_t> wire;
    std::vector<std::uint8_t> peer;  // raw sockaddr bytes
  };
  std::deque<PendingDatagram> udp_out_;
  std::size_t pending_ = 0;  // unflushed responses across all transports
  std::uint64_t reap_timer_ = 0;
  bool draining_ = false;
  std::int64_t drain_deadline_ms_ = 0;
};

}  // namespace zh::net
