// Resolver-side measurement (§4.2): probes one resolver with unique names
// under every rfc9276-in-the-wild.com subzone, classifies it as a validator
// (valid → NOERROR+AD, expired → SERVFAIL), then sweeps it-1 … it-500 to
// infer its RFC 9276 behaviour: Item 6 insecure limit, Item 8 SERVFAIL
// limit, Item 7 violation (it-2501-expired), Item 12 gaps and EDE support.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "simnet/network.hpp"
#include "simtime/simtime.hpp"
#include "testbed/internet.hpp"

namespace zh::scanner {

/// What one it-N probe returned.
struct ZoneObservation {
  bool responsive = false;
  /// First-class Timeout: every retransmission was lost or dropped. Always
  /// false when `responsive` — and distinct from plain unresponsiveness
  /// (an unreachable address is not a timeout).
  bool timed_out = false;
  dns::Rcode rcode = dns::Rcode::kServFail;
  bool ad = false;
  bool ra = false;
  std::optional<dns::EdeCode> ede;
  std::string ede_text;
  /// Wire attempts the probe spent (1 with no loss or truncation).
  unsigned attempts = 0;
  /// Virtual time until the answer (or until retries were exhausted).
  simtime::Duration latency;
};

struct ResolverProbeResult {
  bool responsive = false;
  bool validator = false;
  /// The initial (valid-zone) probe timed out — the §5.2 signature of a
  /// resolver that stopped answering, not of a dead address.
  bool timed_out = false;
  /// Probes across the whole sweep that exhausted their retries.
  std::uint64_t timeouts = 0;
  /// Virtual time the whole probe consumed.
  simtime::Duration elapsed;
  /// Service-queue waiting time accrued during the probe (zero unless a
  /// queue model is installed — see simtime/queue.hpp).
  simtime::Duration queue_wait;
  /// Deliveries shed by a saturated queue during the probe.
  std::uint64_t queue_drops = 0;
  /// Smallest probed N whose it-N query timed out (drop-above-limit
  /// resolvers: the "stop answering" onset).
  std::optional<std::uint16_t> first_timeout;

  /// Keyed by iteration count (the it-N sweep only).
  std::map<std::uint16_t, ZoneObservation> sweep;
  ZoneObservation valid_zone;
  ZoneObservation expired_zone;
  ZoneObservation item7_zone;  // it-2501-expired

  /// Smallest probed N whose response was SERVFAIL (Item 8 onset).
  std::optional<std::uint16_t> first_servfail;
  /// Smallest probed N whose response was NXDOMAIN without AD (Item 6 onset).
  std::optional<std::uint16_t> first_insecure;
  /// Largest probed N answered NXDOMAIN with AD.
  std::optional<std::uint16_t> last_secure;

  /// Item 6: an insecure-response limit is enforced.
  bool implements_item6 = false;
  /// Item 8: a SERVFAIL limit is enforced.
  bool implements_item8 = false;
  /// Inferred limits (largest probed N still fully served).
  std::optional<std::uint16_t> insecure_limit;
  std::optional<std::uint16_t> servfail_limit;
  /// Item 7 violated: it-2501-expired answered NXDOMAIN instead of SERVFAIL.
  bool item7_violation = false;
  /// Item 12: insecure onset strictly below SERVFAIL onset (downgrade gap).
  bool item12_gap = false;
  /// Extended DNS Error on the first limited response.
  std::optional<dns::EdeCode> limit_ede;
};

class ResolverProber {
 public:
  ResolverProber(simnet::Network& network, simnet::IpAddress source,
                 std::vector<testbed::ProbeZone> specs,
                 simtime::RetryPolicy retry = {});

  /// Probes one resolver; `token` makes this resolver's query names unique
  /// (cache busting across a population sweep, §4.2 wildcard rationale).
  /// A one-item run of the scan engine (scanner/async_engine.hpp).
  ResolverProbeResult probe(const simnet::IpAddress& resolver,
                            const std::string& token);

  std::uint64_t queries_issued() const noexcept { return queries_; }

 private:
  simnet::Network& network_;
  simnet::IpAddress source_;
  std::vector<testbed::ProbeZone> specs_;
  simtime::RetryPolicy retry_;
  std::uint64_t queries_ = 0;
};

}  // namespace zh::scanner
