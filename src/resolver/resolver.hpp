// Validating recursive resolver.
//
// Implements full iterative resolution over the simulated Internet (root →
// TLD → zone), DNSSEC chain-of-trust validation (trust anchor → DS → DNSKEY
// → RRSIG), NSEC/NSEC3 denial-of-existence verification including the
// closest-encloser search whose cost CVE-2023-50868 weaponises, and the
// RFC 9276 iteration-limit policy (Items 6-12) under study in the paper.
//
// Forwarding mode models the CPE devices the paper's server-side logs expose
// (queries arriving at Cloudflare/OpenDNS on behalf of open forwarders).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/dnssec.hpp"
#include "dns/message.hpp"
#include "resolver/negcache.hpp"
#include "resolver/policy.hpp"
#include "simnet/network.hpp"
#include "trace/trace.hpp"
#include "zone/signer.hpp"

namespace zh::resolver {

/// Chain-of-trust entry point: the root zone's DS (hash of the root KSK).
struct TrustAnchor {
  dns::DsRdata root_ds;
};

/// Validation state of a response.
enum class Security {
  kSecure,    // full chain validated — AD bit set
  kInsecure,  // provably unsigned (or downgraded by an iteration limit)
  kBogus,     // validation failed — SERVFAIL
};

/// Counters for one resolver instance.
struct ResolverStats {
  std::uint64_t queries_handled = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t upstream_timeouts = 0;  // exchanges that exhausted all retries
  std::uint64_t cache_hits = 0;
  std::uint64_t servfails = 0;
  /// SHA-1 compression blocks spent validating the most recent query — the
  /// CVE-2023-50868 cost signal.
  std::uint64_t last_query_sha1_blocks = 0;
  /// RFC 8198 aggressive-cache activity (zero unless the profile enables
  /// aggressive_nsec).
  std::uint64_t neg_synth_hits = 0;             // answers synthesized
  std::uint64_t neg_synth_optout_refusals = 0;  // cover was Opt-Out (§5.2)
  std::uint64_t neg_cache_inserts = 0;          // interval batches accepted
  /// RFC 9520 failure-cache activity (zero unless failure_caching is on).
  std::uint64_t failure_cache_hits = 0;
  std::uint64_t failure_cache_inserts = 0;
};

class RecursiveResolver {
 public:
  struct Config {
    simnet::IpAddress address;
    ResolverProfile profile;
    std::optional<TrustAnchor> trust_anchor;  // required when validating

    /// Forwarding mode: relay to `forward_target` instead of iterating.
    bool forward = false;
    simnet::IpAddress forward_target;
    /// Forwarders that trust upstream AD copy it into their responses.
    bool copy_ad_from_upstream = true;

    std::size_t max_depth = 24;
    bool enable_cache = true;
    std::size_t cache_capacity = 4096;
  };

  RecursiveResolver(simnet::Network& network, Config config,
                    std::vector<simnet::IpAddress> root_servers);

  /// Registers this resolver as a node on the network.
  void attach();

  const simnet::IpAddress& address() const noexcept {
    return config_.address;
  }
  const Config& config() const noexcept { return config_; }
  const ResolverStats& stats() const noexcept { return stats_; }

  /// Handles a client query (the simnet node handler body).
  dns::Message handle(const dns::Message& query,
                      const simnet::IpAddress& source);

  /// handle(), except profile-mandated drops (drop_on_limit /
  /// drop_on_timeout) come back as nullopt — the client sees a timeout
  /// instead of an answer. This is what attach() registers.
  std::optional<dns::Message> handle_or_drop(const dns::Message& query,
                                             const simnet::IpAddress& source);

  /// Client-style convenience: build a query, handle it, return the reply.
  dns::Message resolve(const dns::Name& qname, dns::RrType qtype,
                       bool dnssec_ok = true);

  /// Drops cached answers and zone contexts (not the trust anchor).
  void flush_cache();

 private:
  struct ZoneContext {
    dns::Name apex;
    std::vector<simnet::IpAddress> servers;
    Security security = Security::kSecure;
    std::vector<dns::DnskeyRdata> keys;  // validated ZSKs+KSKs when secure
  };

  /// Internal resolution outcome before client-response shaping.
  struct Outcome {
    dns::Rcode rcode = dns::Rcode::kServFail;
    Security security = Security::kBogus;
    std::vector<dns::ResourceRecord> answers;
    std::vector<dns::ResourceRecord> authorities;
    std::optional<dns::EdeCode> ede;
    std::string ede_text;
    /// Transport-caused failure (upstream timeout, deadline expiry): must
    /// not enter the answer cache — a retry may well succeed.
    bool transient = false;
    /// Profile says to drop this response instead of sending it.
    bool drop = false;
  };

  Outcome resolve_internal(const dns::Name& qname, dns::RrType qtype,
                           std::size_t depth);
  Outcome forward_query(const dns::Name& qname, dns::RrType qtype);

  /// Sends (qname, qtype) to the context's servers, first responder wins.
  std::optional<dns::Message> query_servers(
      const std::vector<simnet::IpAddress>& servers, const dns::Name& qname,
      dns::RrType qtype);

  /// Fetches and validates a zone's DNSKEY RRset against `ds_set`.
  bool install_validated_keys(ZoneContext& ctx,
                              const std::vector<dns::DsRdata>& ds_set);

  /// Verifies an RRset's RRSIG(s) with the context's keys; handles wildcard
  /// label reconstruction. Returns true if any signature verifies.
  bool verify_rrset(const dns::RrSet& rrset,
                    const std::vector<dns::RrsigRdata>& sigs,
                    const ZoneContext& ctx) const;

  /// Collects the RRSIGs covering (owner, type) from a record list.
  static std::vector<dns::RrsigRdata> sigs_for(
      const std::vector<dns::ResourceRecord>& records, const dns::Name& owner,
      dns::RrType covered);

  Outcome validate_positive(const dns::Message& response,
                            const dns::Name& qname, dns::RrType qtype,
                            const ZoneContext& ctx);
  Outcome validate_negative(const dns::Message& response,
                            const dns::Name& qname, dns::RrType qtype,
                            const ZoneContext& ctx);

  /// Applies Items 6/8 to an NSEC3 iteration count. Returns an outcome when
  /// a limit fires (SERVFAIL or downgraded-insecure), nullopt when full
  /// validation should proceed.
  std::optional<Outcome> apply_iteration_policy(
      const dns::Message& response, std::uint16_t iterations,
      const std::vector<dns::RrSet>& nsec3_sets, const ZoneContext& ctx);

  /// The closest-encloser search (RFC 5155 §8.3) — the expensive path.
  struct CeProof {
    bool valid = false;
    bool name_exists = false;       // NSEC3 matched qname (NODATA case)
    bool wildcard_matched = false;  // *.CE exists (wildcard NODATA)
    dns::TypeBitmap matched_bitmap;
  };
  CeProof check_closest_encloser(
      const dns::Name& qname, const dns::Name& apex,
      const std::vector<dns::Nsec3Rdata>& nsec3s,
      const std::vector<std::vector<std::uint8_t>>& owner_hashes) const;

  Outcome make_servfail(std::optional<dns::EdeCode> ede = std::nullopt,
                        std::string text = {}) const;

  /// Transient SERVFAIL for an expired query deadline (dropped instead when
  /// the profile says so).
  Outcome make_deadline_servfail() const;

  /// SERVFAIL after an upstream exchange chain: transient with an RFC 8914
  /// Network Error marker when the cause was upstream timeouts, otherwise
  /// the caller-supplied (deterministic) EDE.
  Outcome make_transient_servfail(
      std::optional<dns::EdeCode> ede = std::nullopt,
      std::string text = {}) const;

  /// True once the in-flight query's virtual-time budget is spent. Projects
  /// forward: elapsed clock time plus the service cost of own hash work not
  /// yet converted to delay by the owning Network::deliver frame.
  bool deadline_exceeded() const;

  dns::Message shape_response(const dns::Message& query, const Outcome& out);

  /// True when DNSSEC validation applies to the in-flight query (profile
  /// validates and the client did not set CD).
  bool validation_active() const noexcept {
    return config_.profile.validating && !cd_active_;
  }

  simnet::Network& network_;
  Config config_;
  std::vector<simnet::IpAddress> root_servers_;
  ResolverStats stats_;
  std::uint16_t next_id_ = 1;
  bool cd_active_ = false;  // RFC 4035 §3.2.2 checking-disabled handling
  // Set by query_servers when its failure was a retry-exhausting timeout
  // (as opposed to an unreachable or misbehaving server).
  bool upstream_timeout_ = false;
  bool last_query_dropped_ = false;
  // verify_rrset's signed-data buffer, reused signature after signature.
  mutable std::vector<std::uint8_t> signed_data_;
  // Deadline accounting for the in-flight client query (set by handle()).
  simtime::Duration query_start_;
  std::uint64_t own_sha1_start_ = 0;
  std::uint64_t served_sha1_start_ = 0;
  // Handle into the network tracer's metrics registry (registered once at
  // construction; incrementing through it keeps the cache-hit path cheap).
  trace::Metrics::Counter cache_hit_metric_;
  // Registered only when the respective capability is on, so synth-off runs
  // leave the metrics registry (and traced output) untouched.
  trace::Metrics::Counter neg_synth_hit_metric_ = nullptr;
  trace::Metrics::Counter failure_cache_hit_metric_ = nullptr;

  /// Tries RFC 8198 synthesis for (qname, qtype); nullopt on a cache miss.
  std::optional<Outcome> try_synthesize(const dns::Name& qname,
                                        dns::RrType qtype);

  /// Feeds a fully validated NSEC3 denial into the aggressive cache.
  void cache_nsec3_intervals(const dns::Message& response,
                             const ZoneContext& ctx);

  // Infrastructure cache: apex → validated zone context.
  std::unordered_map<dns::Name, ZoneContext, dns::NameHash> zone_cache_;
  // Answer cache: (qname, type, CD) → outcome. The name compares and
  // hashes case-insensitively, so mixed-case repeats hit.
  struct AnswerKey {
    dns::Name name;
    dns::RrType type;
    bool cd;
    bool operator==(const AnswerKey&) const = default;
  };
  struct AnswerKeyHash {
    std::size_t operator()(const AnswerKey& key) const noexcept {
      return key.name.hash() ^
             ((static_cast<std::size_t>(key.type) << 1 | key.cd) *
              0x9e3779b97f4a7c15ull);
    }
  };
  std::unordered_map<AnswerKey, Outcome, AnswerKeyHash> answer_cache_;
  // RFC 8198 / RFC 9520 caches — allocated only when the profile turns the
  // capability on (nullptr otherwise, so the synth-off fast path costs one
  // branch).
  std::unique_ptr<AggressiveNegCache> neg_cache_;
  std::unique_ptr<FailureCache> failure_cache_;
};

}  // namespace zh::resolver
