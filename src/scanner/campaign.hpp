// Campaign drivers: run the domain scanner over the whole synthetic
// population (and the TLD census), and aggregate resolver probe results —
// producing exactly the quantities the paper's §5 reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "scanner/domain_scanner.hpp"
#include "scanner/resolver_prober.hpp"
#include "testbed/internet.hpp"
#include "trace/trace.hpp"
#include "workload/spec.hpp"

namespace zh::scanner {

struct TaskTotals;  // scanner/async_engine.hpp

/// Minimal per-domain record kept after scanning (for intersections).
struct CompactDomainRecord {
  std::uint32_t index = 0;
  DomainScanResult::Class classification =
      DomainScanResult::Class::kUnresponsive;
  std::uint16_t iterations = 0;
  std::uint8_t salt_len = 0;
  bool opt_out = false;
};

/// Aggregated §5.1 statistics of a domain scan campaign.
struct DomainCampaignStats {
  std::uint64_t scanned = 0;
  std::uint64_t dnssec = 0;
  std::uint64_t nsec3 = 0;
  std::uint64_t excluded = 0;

  analysis::Ecdf iterations;  // over NSEC3-enabled domains
  analysis::Ecdf salt_len;

  std::uint64_t zero_iterations = 0;
  std::uint64_t no_salt = 0;
  std::uint64_t fully_compliant = 0;  // Items 2 + 3
  std::uint64_t opt_out = 0;
  std::uint64_t over_150_iterations = 0;
  std::uint64_t at_500_iterations = 0;
  std::uint64_t salt_over_10 = 0;
  std::uint64_t salt_over_45 = 0;
  std::uint64_t salt_at_160 = 0;

  /// NSEC3-enabled domains exclusively served per operator (Table 2).
  analysis::FreqTable operators;
  /// Parameter mixes per operator ("iterations/salt-bytes" keys).
  std::map<std::string, analysis::FreqTable> operator_params;

  /// Virtual-time latency of whole-domain scans, in microseconds (all
  /// zeros unless the network runs a latency/service model).
  analysis::Ecdf scan_latency_us;
  /// Scanner queries that exhausted every retransmission.
  std::uint64_t timeouts = 0;
  /// Per-scan service-queue waiting time, in microseconds (all zeros
  /// unless a queue model is installed — see simtime/queue.hpp).
  analysis::Ecdf queue_delay_us;
  /// Deliveries shed by a saturated queue during the campaign.
  std::uint64_t queue_drops = 0;

  /// Per-scan virtual-time stage breakdown (see trace::Stage), in
  /// microseconds. Stages overlap (resolve spans the whole query while the
  /// others time its parts), so these are a breakdown, not a partition;
  /// all zeros unless a latency/service model moves the clock.
  analysis::Ecdf stage_resolve_us;
  analysis::Ecdf stage_recurse_us;
  analysis::Ecdf stage_validate_us;
  analysis::Ecdf stage_queue_wait_us;

  /// RFC 8198 / RFC 9520 activity of the scan resolver during this shard
  /// (per-shard metric deltas, so sums over shards equal the serial run —
  /// jobs/shard/window-invariant). Zero unless the scan resolver's profile
  /// enables the respective cache.
  std::uint64_t neg_synth_hits = 0;
  std::uint64_t failure_cache_hits = 0;

  /// Folds another shard's aggregates in. Commutative and associative, so
  /// per-shard stats merged in any order equal the unsharded campaign.
  void merge(const DomainCampaignStats& other);

  /// Adds one scan's per-stage virtual-time deltas (nanoseconds).
  void add_stages(const trace::StageTotals& delta_ns);
};

/// Runs the §4.1 pipeline over the synthetic population through a recursive
/// resolver node already attached to the internet.
class DomainCampaign {
 public:
  /// `source` is the scanner's own address — shard engines give each worker
  /// a distinct one; no campaign statistic depends on it.
  DomainCampaign(testbed::Internet& internet,
                 const workload::EcosystemSpec& spec,
                 simnet::IpAddress scan_resolver,
                 simnet::IpAddress source = simnet::IpAddress::v4(203, 0, 113,
                                                                  250),
                 simtime::RetryPolicy retry = {});

  /// Scans domain indexes [0, limit) (stride for cheap smoke runs).
  void run(std::size_t limit = static_cast<std::size_t>(-1),
           std::size_t stride = 1);

  /// Scans shard `shard` of `shards`: the positions j ≡ shard (mod shards)
  /// of the index sequence run() would visit. The union over all shards is
  /// exactly run()'s visit set, for any shard count, so merging the
  /// per-shard stats reproduces the serial campaign bit-for-bit. The scan
  /// engine (scanner/async_engine.hpp) keeps up to `max_inflight` scans in
  /// flight on this thread; the window is unobservable in every result.
  void run_shard(std::size_t shard, std::size_t shards,
                 std::size_t limit = static_cast<std::size_t>(-1),
                 std::size_t stride = 1, std::size_t max_inflight = 1024);

  const DomainCampaignStats& stats() const noexcept { return stats_; }
  /// One record per scanned domain, in domain-index order per run_shard.
  const std::vector<CompactDomainRecord>& records() const noexcept {
    return records_;
  }

  std::uint64_t queries_issued() const noexcept { return queries_; }

 private:
  /// Folds one settled scan into stats_/records_, as it settles. `totals`
  /// carries the item's own queue-counter and tracer-stage movements.
  void accumulate_scan(std::size_t index, const DomainScanResult& result,
                       const TaskTotals& totals);
  /// With a time model active, resolves every census TLD's DNSKEY and every
  /// hosting operator's NS-host address once, so the scan resolver's
  /// root/TLD/operator caches are warm before the first scan. Shards then
  /// all start from the same resolver state, which keeps per-scan
  /// virtual-time latencies identical for any worker count. A no-op (and no
  /// queries) when time never moves.
  void warm_tld_caches();

  testbed::Internet& internet_;
  const workload::EcosystemSpec& spec_;
  simnet::IpAddress scan_resolver_;
  simnet::IpAddress source_;
  simtime::RetryPolicy retry_;
  std::uint64_t queries_ = 0;      // wire attempts of every scan
  std::uint64_t probe_token_ = 0;  // negative-probe token counter
  DomainCampaignStats stats_;
  std::vector<CompactDomainRecord> records_;
  bool warmed_ = false;
};

/// §5.1 TLD census result.
struct TldCensusStats {
  std::uint64_t scanned = 0;
  std::uint64_t dnssec = 0;
  std::uint64_t nsec3 = 0;
  std::uint64_t zero_iterations = 0;
  std::uint64_t at_100_iterations = 0;
  std::uint64_t no_salt = 0;
  std::uint64_t salt_8 = 0;
  std::uint64_t salt_10 = 0;
  std::uint64_t opt_out = 0;
  analysis::Ecdf iterations;
};

/// Scans every TLD in the census through the same pipeline.
TldCensusStats scan_tlds(testbed::Internet& internet,
                         const workload::EcosystemSpec& spec,
                         simnet::IpAddress scan_resolver);

/// Aggregated §5.2 statistics over a probed resolver population.
struct ResolverSweepStats {
  std::uint64_t probed = 0;
  std::uint64_t validators = 0;

  struct RcodeShares {
    std::uint64_t nxdomain = 0;
    std::uint64_t nxdomain_ad = 0;  // subset of nxdomain
    std::uint64_t servfail = 0;
    /// Probes at this iteration count that timed out (no RCODE at all —
    /// the "stop answering" behaviour).
    std::uint64_t timeouts = 0;
    std::uint64_t total = 0;
  };
  /// Figure 3 series: per probed iteration count.
  std::map<std::uint16_t, RcodeShares> by_iteration;

  std::uint64_t item6 = 0;
  std::uint64_t item8 = 0;
  std::uint64_t item7_violations = 0;
  std::uint64_t item12_gaps = 0;
  std::uint64_t ede_on_limit = 0;
  std::map<std::uint16_t, std::uint64_t> insecure_limits;  // limit → count
  std::map<std::uint16_t, std::uint64_t> servfail_limits;

  /// Virtual-time latency of whole resolver probes, in microseconds.
  analysis::Ecdf probe_latency_us;
  /// Probe queries that exhausted every retransmission.
  std::uint64_t timeouts = 0;
  /// Per-probe service-queue waiting time, in microseconds.
  analysis::Ecdf queue_delay_us;
  /// Deliveries shed by a saturated queue during the sweep.
  std::uint64_t queue_drops = 0;
  /// Validators that answered below some it-N but stopped answering
  /// (timed out) above it — the paper's drop-above-limit cohort.
  std::uint64_t stop_answering = 0;

  /// Per-probe virtual-time stage breakdown, in microseconds (see
  /// DomainCampaignStats — same semantics, one sample per probed resolver).
  analysis::Ecdf stage_resolve_us;
  analysis::Ecdf stage_recurse_us;
  analysis::Ecdf stage_validate_us;
  analysis::Ecdf stage_queue_wait_us;

  /// RFC 8198 / RFC 9520 activity across the shard's probed panel members
  /// (per-shard metric deltas — see DomainCampaignStats). Nonzero only when
  /// the panel carries a synth-capable profile.
  std::uint64_t neg_synth_hits = 0;
  std::uint64_t failure_cache_hits = 0;

  void add(const ResolverProbeResult& result);

  /// Adds one probe's per-stage virtual-time deltas (nanoseconds).
  void add_stages(const trace::StageTotals& delta_ns);

  /// Folds another shard's sweep aggregates in (order-invariant).
  void merge(const ResolverSweepStats& other);
};

}  // namespace zh::scanner
