// Domain-side measurement pipeline (§4.1), zdns-style:
//   1. DNSKEY query → DNSSEC-enabled?
//   2. NSEC3PARAM + NS queries → advertised parameters + operator
//   3. random-subdomain negative probe → actual NSEC3 records
//   4. RFC 5155 consistency checks → NSEC3-enabled classification
//   5. RFC 9276 compliance evaluation (Items 2 + 3)
//
// All queries go through a recursive resolver (the paper used Cloudflare's
// 1.1.1.1) with CD set, so broken or limit-exceeding domains still yield
// their records.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "simnet/network.hpp"
#include "simtime/simtime.hpp"

namespace zh::scanner {

/// NSEC3 facts observed from the negative-response probe.
struct Nsec3Observation {
  std::uint16_t iterations = 0;
  std::vector<std::uint8_t> salt;
  bool opt_out = false;
  bool records_consistent = true;     // RFC 5155: same params on all NSEC3s
  bool matches_nsec3param = true;     // NSEC3 ≡ NSEC3PARAM
};

/// Everything the scanner learned about one domain.
struct DomainScanResult {
  enum class Class {
    kUnresponsive,
    kNoDnssec,        // no DNSKEY
    kDnssecNoNsec3,   // DNSKEY but no (single) NSEC3PARAM / no NSEC3 chain
    kNsec3Enabled,    // the study population
    kExcluded,        // multiple NSEC3PARAMs or inconsistent parameters
  };

  dns::Name apex;
  Class classification = Class::kUnresponsive;

  bool dnskey = false;
  std::size_t nsec3param_count = 0;
  std::optional<dns::Nsec3ParamRdata> nsec3param;
  std::vector<dns::Name> ns_names;
  std::optional<Nsec3Observation> nsec3;
  bool nsec_seen = false;

  /// Virtual time the whole scan consumed (zero when no time model runs).
  simtime::Duration elapsed;
  /// Queries within this scan that exhausted every retransmission.
  unsigned timeouts = 0;
  /// kUnresponsive because the initial probe *timed out* (lost packets),
  /// as opposed to an unreachable or non-answering destination.
  bool timed_out = false;

  /// RFC 9276 Item 2 (zero additional iterations).
  bool iterations_compliant() const {
    return nsec3 && nsec3->iterations == 0;
  }
  /// RFC 9276 Item 3 (no salt).
  bool salt_compliant() const { return nsec3 && nsec3->salt.empty(); }
  /// Items 2 + 3 both.
  bool rfc9276_compliant() const {
    return iterations_compliant() && salt_compliant();
  }
};

class DomainScanner {
 public:
  /// `resolver` is the recursive resolver the scan rides on; `source` is
  /// the scanner's own address. `retry` governs retransmission of lost
  /// queries (zdns defaults).
  DomainScanner(simnet::Network& network, simnet::IpAddress source,
                simnet::IpAddress resolver, simtime::RetryPolicy retry = {});

  /// Runs the full §4.1 sequence against one domain: a one-item run of the
  /// scan engine (scanner/async_engine.hpp).
  DomainScanResult scan(const dns::Name& apex);

  std::uint64_t queries_issued() const noexcept { return queries_; }

 private:
  simnet::Network& network_;
  simnet::IpAddress source_;
  simnet::IpAddress resolver_;
  simtime::RetryPolicy retry_;
  std::uint64_t probe_token_ = 0;
  std::uint64_t queries_ = 0;
};

}  // namespace zh::scanner
