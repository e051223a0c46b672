// Resumable measurement flows: the §4.1 domain-scan and §4.2 resolver-probe
// pipelines as explicit state machines over *logical queries*.
//
// The async engine (scanner/async_engine.hpp) drives every flow: it parks a
// flow whenever its logical query waits on the network and resumes it from
// a timer-wheel expiry, which is how one worker thread keeps thousands of
// scans in flight — and a single scan is the same machinery with one item.
// Classification logic exists once, here; the engine only decides when each
// flow's next query runs.
//
// A *logical query* is one question with the full client policy applied:
// up to RetryPolicy::attempts wire transmissions with exponential timeouts,
// UDP→TCP fallback on truncation, and the transient-SERVFAIL re-ask loop
// (RFC 8914 EDE 22/23 marks transport fates, not domain properties). The
// flow only sees the settled outcome; how the attempts were scheduled is
// the engine's business.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "scanner/domain_scanner.hpp"
#include "scanner/resolver_prober.hpp"
#include "simtime/simtime.hpp"

namespace zh::scanner {

/// The next logical query a flow wants answered.
struct FlowQuery {
  dns::Name qname;
  dns::RrType type = dns::RrType::kA;
  /// Checking-disabled bit (the domain scanner measures *through* the
  /// resolver with CD set; the resolver prober measures the resolver
  /// itself and leaves CD clear).
  bool cd = false;
};

/// The settled outcome of one logical query, fed back into the flow.
struct FlowOutcome {
  std::optional<dns::Message> response;
  /// The final exchange exhausted every retransmission.
  bool timed_out = false;
  /// Wire attempts across all re-ask rounds (TCP fallbacks included).
  unsigned attempts = 0;
  /// Virtual time from the first transmission of the first round to the
  /// settled outcome.
  simtime::Duration latency;
};

/// Supplies negative-probe tokens on demand. Passed as a callback so the
/// token counter advances only when a scan actually reaches the probe step;
/// the engine hands tokens out in (deterministic) completion order.
/// Token *values* influence no campaign statistic: the probe label is
/// fixed-width, so hashing cost is value-independent, and every NSEC3
/// record of a synthetic zone carries the same parameters.
using ProbeTokenSource = std::function<std::uint64_t()>;

/// The §4.1 domain pipeline (DNSKEY → NSEC3PARAM → NS → negative probe →
/// classification) as a resumable flow.
class DomainScanFlow {
 public:
  DomainScanFlow() = default;
  DomainScanFlow(dns::Name apex, ProbeTokenSource token_source);

  /// The next logical query, or nullptr when the scan settled.
  const FlowQuery* pending() const {
    return done_ ? nullptr : &pending_;
  }

  /// Feeds the pending query's outcome and advances the pipeline.
  void feed(const FlowOutcome& outcome);

  /// The scan result (classification, parameters, NS set). The caller owns
  /// the timeline: elapsed and timeouts stay zero here (apply_totals fills
  /// them).
  DomainScanResult take_result() { return std::move(result_); }

 private:
  enum class Step { kDnskey, kNsec3Param, kNs, kNegativeProbe };

  void finish() { done_ = true; }

  dns::Name apex_;
  ProbeTokenSource token_source_;
  Step step_ = Step::kDnskey;
  bool done_ = true;  // default-constructed flows are inert
  FlowQuery pending_;
  DomainScanResult result_;
};

/// The §4.2 resolver pipeline (validator detection → it-N sweep → limit
/// inference → Item 7 check) as a resumable flow.
class ProbeFlow {
 public:
  ProbeFlow() = default;
  /// `specs` must outlive the flow (the prober's zone list, shared across
  /// the whole sweep); `token` busts resolver caches per §4.2.
  ProbeFlow(const std::vector<testbed::ProbeZone>* specs, std::string token);

  const FlowQuery* pending() const {
    return done_ ? nullptr : &pending_;
  }

  void feed(const FlowOutcome& outcome);

  /// The probe result. The caller owns the timeline and the queue-counter
  /// bookkeeping: elapsed / queue_wait / queue_drops / timeouts stay zero
  /// here (apply_totals in scanner/async_engine.hpp fills them).
  ResolverProbeResult take_result() { return std::move(result_); }

 private:
  enum class Stage { kValid, kExpired, kSweep, kItem7 };

  dns::Name name_in(const testbed::ProbeZone& spec, bool wildcard) const;
  static ZoneObservation to_observation(const FlowOutcome& outcome);
  void finish() { done_ = true; }
  // Stage transitions: each installs the stage's query, or skips onwards
  // when its zone spec is absent; enter_sweep runs validator detection and
  // enter_sweep_step runs limit inference once the sweep is exhausted.
  void enter_valid();
  void enter_expired();
  void enter_sweep();
  void enter_sweep_step();
  void record_sweep(const testbed::ProbeZone& spec,
                    const ZoneObservation& observation);
  void infer_limits();

  std::string token_;
  const testbed::ProbeZone* valid_ = nullptr;
  const testbed::ProbeZone* expired_ = nullptr;
  const testbed::ProbeZone* item7_ = nullptr;
  std::vector<const testbed::ProbeZone*> its_;
  Stage stage_ = Stage::kValid;
  std::size_t sweep_index_ = 0;
  bool done_ = true;  // default-constructed flows are inert
  FlowQuery pending_;
  ResolverProbeResult result_;
};

}  // namespace zh::scanner
