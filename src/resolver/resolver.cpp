#include "resolver/resolver.hpp"

#include <algorithm>

#include "crypto/cost_meter.hpp"
#include "crypto/nsec3_hash.hpp"
#include "crypto/signing.hpp"
#include "simnet/exchange.hpp"
#include "trace/trace.hpp"

namespace zh::resolver {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::ResourceRecord;
using dns::RrSet;
using dns::RrType;

constexpr std::uint32_t kNow = zone::kSimNow;

/// Extracts typed NSEC3 rdatas + owner hashes from authority records.
struct Nsec3View {
  std::vector<RrSet> sets;  // one per owner (for signature checks)
  std::vector<dns::Nsec3Rdata> rdatas;
  std::vector<std::vector<std::uint8_t>> owner_hashes;
  bool consistent = true;
  std::uint16_t iterations = 0;
  std::vector<std::uint8_t> salt;
};

Nsec3View collect_nsec3(const std::vector<ResourceRecord>& authorities,
                        const Name& apex) {
  Nsec3View view;
  for (const auto& rr : authorities) {
    if (rr.type != RrType::kNsec3) continue;
    const auto rdata = rr.as<dns::Nsec3Rdata>();
    // RFC 5155 §8.1/§8.2: ignore NSEC3 RRs with an unknown hash algorithm
    // or with flags other than 0 and Opt-Out. A response left with none
    // takes the missing-proof path.
    if (rdata &&
        (rdata->hash_algorithm !=
             static_cast<std::uint8_t>(crypto::Nsec3HashAlgorithm::kSha1) ||
         (rdata->flags & ~dns::Nsec3Rdata::kFlagOptOut) != 0))
      continue;
    const auto hash = dns::nsec3_owner_hash(rr.name, apex);
    if (!rdata || !hash) {
      view.consistent = false;
      continue;
    }
    if (view.rdatas.empty()) {
      view.iterations = rdata->iterations;
      view.salt = rdata->salt;
    } else if (rdata->iterations != view.iterations ||
               rdata->salt != view.salt) {
      // RFC 5155 §7.2: all NSEC3 RRs in a response must share parameters.
      view.consistent = false;
    }
    RrSet set;
    set.name = rr.name;
    set.type = RrType::kNsec3;
    set.ttl = rr.ttl;
    set.rdatas = {rr.rdata};
    view.sets.push_back(std::move(set));
    view.rdatas.push_back(*rdata);
    view.owner_hashes.push_back(*hash);
  }
  return view;
}

bool hashes_equal(std::span<const std::uint8_t> a,
                  std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

RecursiveResolver::RecursiveResolver(simnet::Network& network, Config config,
                                     std::vector<simnet::IpAddress> root_servers)
    : network_(network),
      config_(std::move(config)),
      root_servers_(std::move(root_servers)),
      cache_hit_metric_(
          network.tracer().metrics().counter("resolver.cache_hit")) {
  // The RFC 8198 / RFC 9520 caches — and their metrics — exist only when
  // the profile asks for them, so capability-off runs leave the metrics
  // registry (hence traced output) byte-identical to a build without them.
  if (config_.profile.aggressive_nsec) {
    neg_cache_ = std::make_unique<AggressiveNegCache>(
        config_.profile.neg_cache_capacity);
    neg_synth_hit_metric_ =
        network.tracer().metrics().counter("resolver.neg_synth_hit");
  }
  if (config_.profile.failure_caching) {
    FailureCache::Config failure_config;
    failure_config.base_ttl = config_.profile.failure_cache_ttl;
    failure_cache_ = std::make_unique<FailureCache>(failure_config);
    failure_cache_hit_metric_ =
        network.tracer().metrics().counter("resolver.failure_cache_hit");
  }
}

void RecursiveResolver::attach() {
  network_.attach(config_.address,
                  [this](const Message& query, const simnet::IpAddress& src) {
                    return handle_or_drop(query, src);
                  });
}

std::optional<Message> RecursiveResolver::handle_or_drop(
    const Message& query, const simnet::IpAddress& source) {
  Message response = handle(query, source);
  if (last_query_dropped_) return std::nullopt;
  return response;
}

void RecursiveResolver::flush_cache() {
  zone_cache_.clear();
  answer_cache_.clear();
  if (neg_cache_) neg_cache_->clear();
  if (failure_cache_) failure_cache_->clear();
}

Message RecursiveResolver::resolve(const Name& qname, RrType qtype,
                                   bool dnssec_ok) {
  Message query = Message::make_query(next_id_++, qname, qtype, dnssec_ok);
  return handle(query, config_.address);
}

Message RecursiveResolver::handle(const Message& query,
                                  const simnet::IpAddress& /*source*/) {
  ++stats_.queries_handled;
  const std::uint64_t sha1_before = crypto::CostMeter::sha1_blocks();
  const std::uint64_t served_before = network_.receiver_sha1_blocks();
  query_start_ = network_.clock().now();
  own_sha1_start_ = sha1_before;
  served_sha1_start_ = served_before;
  last_query_dropped_ = false;

  Message response = Message::make_response(query);
  if (query.questions.empty()) {
    response.header.rcode = Rcode::kFormErr;
    return response;
  }
  const dns::Question& q = query.questions.front();

  trace::Tracer& tracer = network_.tracer();
  trace::Span query_span;
  if (tracer.enabled())
    query_span = tracer.span("resolver", "resolve",
                             q.name.canonical().to_string());

  // CD (checking disabled): resolve without validating — the client takes
  // responsibility. Measurement tooling (zdns-style) relies on this to
  // retrieve records from bogus or limit-exceeding zones.
  cd_active_ = query.header.cd;

  Outcome out;
  AnswerKey cache_key{q.name, q.type, cd_active_};
  bool from_cache = false;
  if (config_.enable_cache) {
    const auto it = answer_cache_.find(cache_key);
    if (it != answer_cache_.end()) {
      out = it->second;
      from_cache = true;
      ++stats_.cache_hits;
      ++*cache_hit_metric_;
    }
  }
  if (!from_cache) {
    // RFC 8198: before going upstream, try to synthesize the denial from
    // validated NSEC3 intervals already in the aggressive cache. Only
    // meaningful when this query would validate (never under CD) and the
    // resolver iterates itself.
    std::optional<Outcome> served;
    if (neg_cache_ && validation_active() && !config_.forward)
      served = try_synthesize(q.name, q.type);
    // RFC 9520: a still-fresh cached resolution failure answers without
    // re-running the failing resolution. Keyed without the CD marker —
    // transport failures do not depend on validation.
    std::string failure_key;
    if (failure_cache_)
      failure_key = q.name.canonical().to_string() + "|" +
                    std::to_string(static_cast<std::uint16_t>(q.type));
    if (!served && failure_cache_) {
      if (const auto hit =
              failure_cache_->lookup(failure_key, network_.clock().now())) {
        Outcome cached = make_servfail(hit->ede, hit->ede_text);
        cached.transient = true;  // stays out of the answer cache
        served = std::move(cached);
        ++stats_.failure_cache_hits;
        ++*failure_cache_hit_metric_;
      }
    }
    if (served) {
      out = std::move(*served);
    } else {
      out = config_.forward ? forward_query(q.name, q.type)
                            : resolve_internal(q.name, q.type, 0);
      if (failure_cache_ && out.transient) {
        failure_cache_->record(failure_key, network_.clock().now(), out.ede,
                               out.ede_text);
        ++stats_.failure_cache_inserts;
      }
    }
    // Transient (transport-caused) failures stay out of the cache: caching
    // them would turn one lost packet into a permanently broken name.
    if (config_.enable_cache && !out.transient) {
      if (answer_cache_.size() >= config_.cache_capacity)
        answer_cache_.clear();
      answer_cache_.emplace(std::move(cache_key), out);
    }
  }
  last_query_dropped_ = out.drop;

  if (out.rcode == Rcode::kServFail) ++stats_.servfails;
  // Own validation work only: subtract hash work performed inside the
  // handlers of nodes this resolver queried (authoritative proof building).
  const std::uint64_t served =
      network_.receiver_sha1_blocks() - served_before;
  const std::uint64_t total = crypto::CostMeter::sha1_blocks() - sha1_before;
  stats_.last_query_sha1_blocks = total > served ? total - served : 0;
  // Stage accounting: the whole query in virtual time, plus the service
  // conversion of our own hash work (which the network only applies after
  // this handler returns).
  tracer.add_stage(
      trace::Stage::kResolve,
      (network_.clock().now() - query_start_ +
       network_.service_model().cost(stats_.last_query_sha1_blocks))
          .nanos());

  Message shaped = shape_response(query, out);
  cd_active_ = false;
  return shaped;
}

Message RecursiveResolver::shape_response(const Message& query,
                                          const Outcome& out) {
  Message response = Message::make_response(query);
  response.header.rcode = out.rcode;
  // The broken-device quirk: RA mirrors the query instead of being asserted.
  response.header.ra = config_.profile.ra_copies_rd
                           ? (query.header.ra || !query.header.rd)
                           : true;
  if (out.rcode != Rcode::kServFail) {
    response.answers = out.answers;
    response.authorities = out.authorities;
  }
  const bool client_wants_dnssec =
      (query.edns && query.edns->do_bit) || query.header.ad;
  // AD is asserted by validators, and by forwarders that trust (and copy)
  // their upstream's validation result.
  const bool may_assert_ad =
      config_.profile.validating ||
      (config_.forward && config_.copy_ad_from_upstream);
  if (may_assert_ad && !query.header.cd &&
      out.security == Security::kSecure && client_wants_dnssec) {
    response.header.ad = true;
  }
  response.header.cd = query.header.cd;
  if (!client_wants_dnssec) {
    // Strip DNSSEC records for non-DO clients.
    const auto is_dnssec_type = [](const ResourceRecord& rr) {
      return rr.type == RrType::kRrsig || rr.type == RrType::kNsec ||
             rr.type == RrType::kNsec3;
    };
    std::erase_if(response.answers, is_dnssec_type);
    std::erase_if(response.authorities, is_dnssec_type);
  }
  if (out.ede && response.edns) {
    response.edns->add_ede(*out.ede, out.ede_text);
  }
  return response;
}

RecursiveResolver::Outcome RecursiveResolver::make_servfail(
    std::optional<dns::EdeCode> ede, std::string text) const {
  Outcome out;
  out.rcode = Rcode::kServFail;
  out.security = Security::kBogus;
  out.ede = ede;
  out.ede_text = std::move(text);
  return out;
}

RecursiveResolver::Outcome RecursiveResolver::make_deadline_servfail() const {
  // RFC 8914 EDE 22 is the deadline code; like every transport-caused
  // SERVFAIL it stays out of the answer cache, and the EDE lets clients
  // (scanner/prober) recognise it as retryable rather than a policy limit.
  Outcome out = make_servfail(dns::EdeCode::kNoReachableAuthority,
                              "query deadline exceeded");
  out.transient = true;
  out.drop = config_.profile.drop_on_timeout;
  return out;
}

RecursiveResolver::Outcome RecursiveResolver::make_transient_servfail(
    std::optional<dns::EdeCode> ede, std::string text) const {
  // Upstream retransmission exhausted: mark with RFC 8914 Network Error so
  // the failure is distinguishable from a deterministic validation
  // SERVFAIL; callers that did not time out keep their own EDE.
  Outcome out = upstream_timeout_
                    ? make_servfail(dns::EdeCode::kNetworkError,
                                    "upstream queries timed out")
                    : make_servfail(ede, std::move(text));
  out.transient = upstream_timeout_;
  return out;
}

bool RecursiveResolver::deadline_exceeded() const {
  const auto& deadline = config_.profile.query_deadline;
  if (!deadline || !network_.time_models_active()) return false;
  const simtime::Duration elapsed = network_.clock().now() - query_start_;
  // Hash work this resolver did itself has not yet been converted to
  // service delay (that happens in the owning Network::deliver frame when
  // handle() returns) — project it so the deadline sees the true cost.
  const std::uint64_t total =
      crypto::CostMeter::sha1_blocks() - own_sha1_start_;
  const std::uint64_t served =
      network_.receiver_sha1_blocks() - served_sha1_start_;
  const std::uint64_t own = total > served ? total - served : 0;
  return elapsed + network_.service_model().cost(own) > *deadline;
}

RecursiveResolver::Outcome RecursiveResolver::forward_query(const Name& qname,
                                                            RrType qtype) {
  Message query = Message::make_query(next_id_++, qname, qtype,
                                      /*dnssec_ok=*/true);
  const simnet::ExchangeOutcome ex =
      simnet::exchange(network_, config_.address, config_.forward_target,
                       query, config_.profile.upstream_retry);
  stats_.upstream_queries += ex.attempts - (ex.tcp_fallback ? 1 : 0);
  if (ex.timed_out) ++stats_.upstream_timeouts;
  if (!ex.response) {
    Outcome out = ex.timed_out
                      ? make_servfail(dns::EdeCode::kNetworkError,
                                      "upstream queries timed out")
                      : make_servfail();
    out.transient = ex.timed_out;
    return out;
  }
  const std::optional<Message>& response = ex.response;

  Outcome out;
  out.rcode = response->header.rcode;
  out.answers = response->answers;
  out.authorities = response->authorities;
  out.security = (response->header.ad && config_.copy_ad_from_upstream)
                     ? Security::kSecure
                     : Security::kInsecure;
  if (response->edns) {
    if (const auto ede = response->edns->ede()) {
      out.ede = ede->info_code;
      out.ede_text = ede->extra_text;
    }
  }
  return out;
}

std::optional<Message> RecursiveResolver::query_servers(
    const std::vector<simnet::IpAddress>& servers, const Name& qname,
    RrType qtype) {
  upstream_timeout_ = false;
  // Everything below is upstream traffic: waits, retransmission backoff and
  // nested deliveries all land in the recurse stage.
  const trace::StageTimer recurse_timer(network_.tracer(),
                                        trace::Stage::kRecurse);
  for (const auto& server : servers) {
    Message query = Message::make_query(next_id_++, qname, qtype,
                                        /*dnssec_ok=*/true,
                                        /*recursion_desired=*/false);
    // zdns-style retransmission with UDP→TCP fallback on truncation (RFC
    // 7766) — large NSEC3 proofs and DNSKEY RRsets routinely exceed UDP
    // budgets.
    simnet::ExchangeOutcome ex = simnet::exchange(
        network_, config_.address, server, query,
        config_.profile.upstream_retry);
    stats_.upstream_queries += ex.attempts - (ex.tcp_fallback ? 1 : 0);
    if (ex.timed_out) {
      ++stats_.upstream_timeouts;
      upstream_timeout_ = true;
      continue;
    }
    if (!ex.response) continue;  // unreachable — try the next server
    const Message& response = *ex.response;
    // Anti-spoofing hygiene (RFC 5452): the response must echo our
    // transaction ID and question, or it is discarded.
    if (response.header.id != query.header.id) continue;
    if (response.questions.empty() ||
        !(response.questions.front() == query.questions.front()))
      continue;
    if (response.header.rcode == Rcode::kRefused ||
        response.header.rcode == Rcode::kFormErr ||
        response.header.rcode == Rcode::kNotImp)
      continue;
    return std::move(ex.response);
  }
  return std::nullopt;
}

std::vector<dns::RrsigRdata> RecursiveResolver::sigs_for(
    const std::vector<ResourceRecord>& records, const Name& owner,
    RrType covered) {
  std::vector<dns::RrsigRdata> out;
  for (const auto& rr : records) {
    if (rr.type != RrType::kRrsig || !rr.name.equals(owner)) continue;
    const auto sig = rr.as<dns::RrsigRdata>();
    if (sig && sig->covered() == covered) out.push_back(*sig);
  }
  return out;
}

bool RecursiveResolver::verify_rrset(const RrSet& rrset,
                                     const std::vector<dns::RrsigRdata>& sigs,
                                     const ZoneContext& ctx) const {
  for (const auto& sig : sigs) {
    if (sig.inception > kNow || sig.expiration < kNow) continue;
    if (!sig.signer.equals(ctx.apex)) continue;
    // Find the key the signature references.
    const dns::DnskeyRdata* key = nullptr;
    for (const auto& candidate : ctx.keys) {
      if (candidate.key_tag() == sig.key_tag &&
          candidate.algorithm == sig.algorithm) {
        key = &candidate;
        break;
      }
    }
    if (!key || key->public_key.size() != crypto::kSimPublicKeySize) continue;

    // Wildcard reconstruction (RFC 4035 §5.3.2): if the RRSIG's label count
    // is lower than the owner's, the signed owner was the wildcard.
    const std::uint8_t owner_labels = dns::rrsig_label_count(rrset.name);
    if (sig.labels > owner_labels) continue;  // malformed
    const bool expanded = sig.labels < owner_labels;
    const Name wildcard =
        expanded ? rrset.name.ancestor_with_labels(sig.labels).wildcard_child()
                 : Name();
    dns::build_signed_data(sig, rrset, expanded ? wildcard : rrset.name,
                           signed_data_);

    crypto::SimPublicKey pk{};
    std::copy(key->public_key.begin(), key->public_key.end(), pk.begin());
    if (crypto::sim_verify(pk, signed_data_, sig.signature)) return true;
  }
  return false;
}

bool RecursiveResolver::install_validated_keys(
    ZoneContext& ctx, const std::vector<dns::DsRdata>& ds_set) {
  const auto response = query_servers(ctx.servers, ctx.apex, RrType::kDnskey);
  if (!response) return false;

  const auto dnskey_records = response->answers_with(RrType::kDnskey);
  if (dnskey_records.empty()) return false;

  RrSet dnskey_set;
  dnskey_set.name = ctx.apex;
  dnskey_set.type = RrType::kDnskey;
  dnskey_set.ttl = dnskey_records.front().ttl;
  std::vector<dns::DnskeyRdata> keys;
  for (const auto& rr : dnskey_records) {
    dnskey_set.rdatas.push_back(rr.rdata);
    const auto key = rr.as<dns::DnskeyRdata>();
    if (key) keys.push_back(*key);
  }

  // One of the keys must match a DS from the parent.
  const dns::DnskeyRdata* anchor_key = nullptr;
  for (const auto& key : keys) {
    for (const auto& ds : ds_set) {
      if (dns::ds_matches_key(ds, ctx.apex, key)) {
        anchor_key = &key;
        break;
      }
    }
    if (anchor_key) break;
  }
  if (!anchor_key) return false;

  // The DNSKEY RRset must be self-signed by the anchored key.
  const auto sigs = sigs_for(response->answers, ctx.apex, RrType::kDnskey);
  ZoneContext probe = ctx;
  probe.keys = keys;
  bool verified = false;
  for (const auto& sig : sigs) {
    if (sig.key_tag != anchor_key->key_tag()) continue;
    if (verify_rrset(dnskey_set, {sig}, probe)) {
      verified = true;
      break;
    }
  }
  if (!verified) return false;

  ctx.keys = std::move(keys);
  ctx.security = Security::kSecure;
  return true;
}

RecursiveResolver::Outcome RecursiveResolver::resolve_internal(
    const Name& qname, RrType qtype, std::size_t depth) {
  if (depth > 8) return make_servfail();

  // Start from the deepest cached zone context containing qname.
  ZoneContext ctx;
  bool have_ctx = false;
  for (std::size_t labels = qname.label_count() + 1; labels-- > 0;) {
    const Name candidate = qname.ancestor_with_labels(labels);
    // For DS queries the parent is authoritative: skip the qname's own zone.
    if (qtype == RrType::kDs && candidate.equals(qname) && labels > 0)
      continue;
    const auto it = zone_cache_.find(candidate);
    if (it != zone_cache_.end()) {
      ctx = it->second;
      have_ctx = true;
      break;
    }
  }
  if (!have_ctx) {
    ctx.apex = Name::root();
    ctx.servers = root_servers_;
    ctx.security =
        validation_active() ? Security::kSecure : Security::kInsecure;
    if (validation_active()) {
      if (!config_.trust_anchor) return make_servfail();
      if (!install_validated_keys(ctx, {config_.trust_anchor->root_ds})) {
        return make_transient_servfail(dns::EdeCode::kDnssecBogus,
                                       "cannot validate root DNSKEY");
      }
    }
    zone_cache_.emplace(ctx.apex, ctx);
  }

  for (std::size_t step = 0; step < config_.max_depth; ++step) {
    if (deadline_exceeded()) return make_deadline_servfail();
    trace::Span step_span;
    if (network_.tracer().enabled())
      step_span = network_.tracer().span("resolver", "step",
                                         ctx.apex.canonical().to_string());
    const auto response = query_servers(ctx.servers, qname, qtype);
    if (!response) return make_transient_servfail();
    if (response->header.rcode != Rcode::kNoError &&
        response->header.rcode != Rcode::kNxDomain)
      return make_servfail();

    // --- Referral? ---
    if (!response->header.aa && response->answers.empty()) {
      const Name* child = nullptr;
      for (const auto& rr : response->authorities) {
        if (rr.type != RrType::kNs) continue;
        if (rr.name.label_count() > ctx.apex.label_count() &&
            qname.is_subdomain_of(rr.name)) {
          child = &rr.name;
          break;
        }
      }
      if (child) {
        ZoneContext next;
        next.apex = *child;
        next.security = ctx.security;

        // Gather name-server addresses: glue first.
        std::vector<Name> ns_targets;
        for (const auto& rr : response->authorities) {
          if (rr.type != RrType::kNs || !rr.name.equals(*child)) continue;
          if (const auto ns = rr.as<dns::NsRdata>())
            ns_targets.push_back(ns->nsdname);
        }
        for (const auto& rr : response->additionals) {
          const bool is_glue_owner =
              std::any_of(ns_targets.begin(), ns_targets.end(),
                          [&rr](const Name& t) { return t.equals(rr.name); });
          if (!is_glue_owner) continue;
          if (rr.type == RrType::kA && rr.rdata.size() == 4)
            next.servers.push_back(
                simnet::IpAddress::from_bytes(false, rr.rdata.data()));
          if (rr.type == RrType::kAaaa && rr.rdata.size() == 16)
            next.servers.push_back(
                simnet::IpAddress::from_bytes(true, rr.rdata.data()));
        }
        if (next.servers.empty()) {
          // Glueless delegation: resolve the NS names out of band.
          bool transient_sub = false;
          for (const auto& target : ns_targets) {
            if (next.servers.size() >= 3) break;
            const Outcome sub = resolve_internal(target, RrType::kA,
                                                 depth + 1);
            transient_sub = transient_sub || sub.transient;
            for (const auto& rr : sub.answers) {
              if (rr.type == RrType::kA && rr.rdata.size() == 4)
                next.servers.push_back(
                    simnet::IpAddress::from_bytes(false, rr.rdata.data()));
            }
          }
          if (next.servers.empty()) {
            Outcome out =
                transient_sub ? make_servfail(dns::EdeCode::kNetworkError,
                                              "NS address resolution timed out")
                              : make_servfail();
            out.transient = transient_sub;
            return out;
          }
        }
        if (next.servers.empty()) return make_servfail();

        // DNSSEC: descend the chain of trust.
        if (validation_active() && ctx.security == Security::kSecure) {
          std::vector<dns::DsRdata> ds_set;
          RrSet ds_rrset;
          ds_rrset.name = *child;
          ds_rrset.type = RrType::kDs;
          for (const auto& rr : response->authorities) {
            if (rr.type != RrType::kDs || !rr.name.equals(*child)) continue;
            if (const auto ds = rr.as<dns::DsRdata>()) {
              ds_set.push_back(*ds);
              ds_rrset.ttl = rr.ttl;
              ds_rrset.rdatas.push_back(rr.rdata);
            }
          }
          if (!ds_set.empty()) {
            const auto sigs =
                sigs_for(response->authorities, *child, RrType::kDs);
            if (!verify_rrset(ds_rrset, sigs, ctx))
              return make_servfail(dns::EdeCode::kDnssecBogus,
                                   "DS RRset validation failed");
            // RFC 4035 §5.2: if no DS uses an algorithm this validator
            // implements, the child zone is treated as insecure, not bogus.
            const bool any_supported = std::any_of(
                ds_set.begin(), ds_set.end(), [](const dns::DsRdata& ds) {
                  return ds.algorithm ==
                         static_cast<std::uint8_t>(
                             crypto::DnssecAlgorithm::kSimHmacSha256);
                });
            if (!any_supported) {
              next.security = Security::kInsecure;
            } else if (!install_validated_keys(next, ds_set)) {
              return make_transient_servfail(
                  dns::EdeCode::kDnssecBogus, "child DNSKEY validation failed");
            }
          } else {
            // Insecure delegation: the absence of DS must be proven.
            const Nsec3View view =
                collect_nsec3(response->authorities, ctx.apex);
            if (!view.rdatas.empty()) {
              if (!view.consistent)
                return make_servfail(dns::EdeCode::kDnssecBogus,
                                     "inconsistent NSEC3 parameters");
              if (const auto policy_outcome = apply_iteration_policy(
                      *response, view.iterations, view.sets, ctx)) {
                if (policy_outcome->rcode == Rcode::kServFail)
                  return *policy_outcome;
                next.security = Security::kInsecure;  // downgraded
              } else {
                for (const auto& set : view.sets) {
                  const auto sigs = sigs_for(response->authorities, set.name,
                                             RrType::kNsec3);
                  if (!verify_rrset(set, sigs, ctx))
                    return make_servfail(dns::EdeCode::kDnssecBogus,
                                         "no-DS proof validation failed");
                }
                next.security = Security::kInsecure;
              }
            } else if (!response->authorities_with(RrType::kNsec)
                            .empty()) {
              next.security = Security::kInsecure;
            } else {
              return make_servfail(dns::EdeCode::kDnssecBogus,
                                   "missing no-DS proof");
            }
          }
        }

        if (next.apex.equals(ctx.apex)) return make_servfail();  // no progress
        zone_cache_[next.apex] = next;
        ctx = std::move(next);
        continue;
      }
    }

    // --- Final response ---
    Outcome out;
    if (validation_active() && ctx.security == Security::kSecure) {
      trace::Tracer& tracer = network_.tracer();
      const bool negative = response->answers.empty();
      trace::Span validate_span;
      if (tracer.enabled())
        validate_span = tracer.span(
            "resolver", negative ? "validate.negative" : "validate.positive");
      // Validation is own hash work: it does not move the clock inside this
      // handler (the network converts the SHA-1 delta to delay only after
      // the handler returns), so the validate stage projects the cost the
      // same way deadline_exceeded() does.
      const std::uint64_t validate_sha1 = crypto::CostMeter::sha1_blocks();
      const simtime::Duration validate_start = network_.clock().now();
      out = negative ? validate_negative(*response, qname, qtype, ctx)
                     : validate_positive(*response, qname, qtype, ctx);
      tracer.add_stage(
          trace::Stage::kValidate,
          (network_.clock().now() - validate_start +
           network_.service_model().cost(crypto::CostMeter::sha1_blocks() -
                                         validate_sha1))
              .nanos());
    } else {
      out.rcode = response->header.rcode;
      out.answers = response->answers;
      out.authorities = response->authorities;
      out.security = Security::kInsecure;
    }

    // --- CNAME chase ---
    if (out.rcode == Rcode::kNoError && qtype != RrType::kCname) {
      const bool has_final = std::any_of(
          out.answers.begin(), out.answers.end(),
          [&](const ResourceRecord& rr) {
            return rr.type == qtype && rr.name.equals(qname);
          });
      if (!has_final) {
        for (const auto& rr : out.answers) {
          if (rr.type != RrType::kCname || !rr.name.equals(qname)) continue;
          const auto cname = rr.as<dns::CnameRdata>();
          if (!cname) break;
          Outcome sub = resolve_internal(cname->target, qtype, depth + 1);
          if (sub.rcode == Rcode::kServFail) return sub;
          out.rcode = sub.rcode;
          out.answers.insert(out.answers.end(), sub.answers.begin(),
                             sub.answers.end());
          out.authorities = sub.authorities;
          if (sub.security == Security::kInsecure ||
              out.security == Security::kInsecure)
            out.security = Security::kInsecure;
          break;
        }
      }
    }
    // Validation was the expensive part — re-check the budget before the
    // answer leaves, so over-deadline work yields a timeout, not an answer.
    if (deadline_exceeded()) return make_deadline_servfail();
    return out;
  }
  return make_servfail();
}

RecursiveResolver::Outcome RecursiveResolver::validate_positive(
    const Message& response, const Name& qname, RrType /*qtype*/,
    const ZoneContext& ctx) {
  Outcome out;
  out.rcode = response.header.rcode;
  out.answers = response.answers;
  out.authorities = response.authorities;
  out.security = Security::kSecure;

  std::vector<ResourceRecord> data;
  for (const auto& rr : response.answers)
    if (rr.type != RrType::kRrsig) data.push_back(rr);

  bool any_wildcard = false;
  std::uint8_t wildcard_ce_labels = 0;
  for (const auto& set : RrSet::group(data)) {
    const auto sigs = sigs_for(response.answers, set.name, set.type);
    if (sigs.empty() || !verify_rrset(set, sigs, ctx)) {
      const bool expired = std::any_of(
          sigs.begin(), sigs.end(),
          [](const dns::RrsigRdata& s) { return s.expiration < kNow; });
      return make_servfail(expired ? dns::EdeCode::kSignatureExpired
                                   : dns::EdeCode::kDnssecBogus,
                           "answer RRset validation failed");
    }
    for (const auto& sig : sigs) {
      if (sig.labels < dns::rrsig_label_count(set.name)) {
        any_wildcard = true;
        wildcard_ce_labels = sig.labels;
      }
    }
  }

  if (any_wildcard) {
    // Wildcard expansion requires proof that the next-closer name does not
    // exist (RFC 5155 §8.8) — NSEC3 iteration policy applies here too.
    const Nsec3View view = collect_nsec3(response.authorities, ctx.apex);
    if (!view.rdatas.empty()) {
      if (!view.consistent)
        return make_servfail(dns::EdeCode::kDnssecBogus,
                             "inconsistent NSEC3 parameters");
      if (const auto policy_outcome = apply_iteration_policy(
              response, view.iterations, view.sets, ctx)) {
        return *policy_outcome;
      }
      for (const auto& set : view.sets) {
        const auto sigs =
            sigs_for(response.authorities, set.name, RrType::kNsec3);
        if (!verify_rrset(set, sigs, ctx))
          return make_servfail(dns::EdeCode::kDnssecBogus,
                               "wildcard proof validation failed");
      }
      const Name next_closer = qname.ancestor_with_labels(
          static_cast<std::size_t>(wildcard_ce_labels) + 1);
      const auto nc_hash = dns::nsec3_hash_name(
          next_closer,
          std::span<const std::uint8_t>(view.salt.data(), view.salt.size()),
          view.iterations);
      bool covered = false;
      for (std::size_t i = 0; i < view.rdatas.size(); ++i) {
        if (dns::nsec3_covers(
                std::span<const std::uint8_t>(view.owner_hashes[i].data(),
                                              view.owner_hashes[i].size()),
                std::span<const std::uint8_t>(
                    view.rdatas[i].next_hash.data(),
                    view.rdatas[i].next_hash.size()),
                std::span<const std::uint8_t>(nc_hash.data(),
                                              nc_hash.size()))) {
          covered = true;
          break;
        }
      }
      if (!covered)
        return make_servfail(dns::EdeCode::kDnssecBogus,
                             "wildcard next-closer not covered");
    } else if (response.authorities_with(RrType::kNsec).empty()) {
      return make_servfail(dns::EdeCode::kDnssecBogus,
                           "wildcard expansion without denial proof");
    }
  }
  return out;
}

std::optional<RecursiveResolver::Outcome>
RecursiveResolver::apply_iteration_policy(const Message& response,
                                          std::uint16_t iterations,
                                          const std::vector<RrSet>& nsec3_sets,
                                          const ZoneContext& ctx) {
  const Rfc9276Policy& policy = config_.profile.policy;

  const auto attach_ede = [&](Outcome& out) {
    if (policy.ede_override) {
      out.ede = *policy.ede_override;
    } else if (policy.emit_ede27) {
      out.ede = dns::EdeCode::kUnsupportedNsec3Iterations;
      out.ede_text = policy.ede_extra_text;
    }
  };

  if (policy.exceeds_servfail(iterations)) {
    // Item 8: refuse outright — or, for the §5.2 "stop answering" cohort,
    // drop the query so the client observes a timeout.
    Outcome out = make_servfail();
    out.drop = config_.profile.drop_on_limit;
    attach_ede(out);
    return out;
  }

  if (policy.exceeds_insecure(iterations)) {
    // Item 7: the NSEC3 RRset's own integrity must be checked before its
    // iteration count is trusted. Non-compliant resolvers skip this.
    if (policy.verify_rrsig_before_downgrade) {
      for (const auto& set : nsec3_sets) {
        const auto sigs =
            sigs_for(response.authorities, set.name, RrType::kNsec3);
        if (!verify_rrset(set, sigs, ctx)) {
          const bool expired = std::any_of(
              sigs.begin(), sigs.end(),
              [](const dns::RrsigRdata& s) { return s.expiration < kNow; });
          return make_servfail(expired ? dns::EdeCode::kSignatureExpired
                                       : dns::EdeCode::kDnssecBogus,
                               "NSEC3 RRSIG validation failed (Item 7)");
        }
      }
    }
    // Item 6: answer stands, but as insecure (AD cleared).
    Outcome out;
    out.rcode = response.header.rcode;
    out.answers = response.answers;
    out.authorities = response.authorities;
    out.security = Security::kInsecure;
    attach_ede(out);
    return out;
  }

  return std::nullopt;
}

RecursiveResolver::CeProof RecursiveResolver::check_closest_encloser(
    const Name& qname, const Name& apex,
    const std::vector<dns::Nsec3Rdata>& nsec3s,
    const std::vector<std::vector<std::uint8_t>>& owner_hashes) const {
  CeProof proof;
  if (nsec3s.empty()) return proof;
  const std::uint16_t iterations = nsec3s.front().iterations;
  const std::vector<std::uint8_t>& salt = nsec3s.front().salt;

  const auto hash_of = [&](const Name& name) {
    return dns::nsec3_hash_name(
        name, std::span<const std::uint8_t>(salt.data(), salt.size()),
        iterations);
  };
  const auto matching =
      [&](std::span<const std::uint8_t> h) -> const dns::Nsec3Rdata* {
    for (std::size_t i = 0; i < owner_hashes.size(); ++i)
      if (hashes_equal(owner_hashes[i], h)) return &nsec3s[i];
    return nullptr;
  };
  const auto covered = [&](std::span<const std::uint8_t> h) {
    for (std::size_t i = 0; i < owner_hashes.size(); ++i) {
      if (dns::nsec3_covers(
              std::span<const std::uint8_t>(owner_hashes[i].data(),
                                            owner_hashes[i].size()),
              std::span<const std::uint8_t>(nsec3s[i].next_hash.data(),
                                            nsec3s[i].next_hash.size()),
              h))
        return true;
    }
    return false;
  };

  // Direct match → NODATA-style proof.
  const auto qhash = hash_of(qname);
  if (const auto* match = matching(qhash)) {
    proof.valid = true;
    proof.name_exists = true;
    proof.matched_bitmap = match->types;
    return proof;
  }

  // Closest-encloser search: hash every ancestor until one matches. This is
  // the loop CVE-2023-50868 exploits — each probe costs iterations+1 SHA-1
  // applications.
  std::optional<Name> closest_encloser;
  Name next_closer = qname;
  for (std::size_t labels = qname.label_count(); labels-- > apex.label_count();) {
    const Name candidate = qname.ancestor_with_labels(labels);
    const auto chash = hash_of(candidate);
    if (matching(chash)) {
      closest_encloser = candidate;
      next_closer = qname.ancestor_with_labels(labels + 1);
      break;
    }
  }
  if (!closest_encloser) {
    // The apex itself must exist; check it explicitly.
    const auto apex_hash = hash_of(apex);
    if (!matching(apex_hash)) return proof;
    closest_encloser = apex;
    next_closer = qname.ancestor_with_labels(apex.label_count() + 1);
  }

  if (!covered(hash_of(next_closer))) return proof;

  const Name wildcard = closest_encloser->wildcard_child();
  const auto whash = hash_of(wildcard);
  if (const auto* match = matching(whash)) {
    proof.valid = true;
    proof.wildcard_matched = true;
    proof.matched_bitmap = match->types;
    return proof;
  }
  if (covered(whash)) {
    proof.valid = true;  // full NXDOMAIN proof
    return proof;
  }
  return proof;
}

RecursiveResolver::Outcome RecursiveResolver::validate_negative(
    const Message& response, const Name& qname, RrType qtype,
    const ZoneContext& ctx) {
  const Nsec3View view = collect_nsec3(response.authorities, ctx.apex);

  if (view.rdatas.empty()) {
    // NSEC (or nothing). A secure zone must prove its denials.
    const auto nsecs = response.authorities_with(RrType::kNsec);
    if (nsecs.empty())
      return make_servfail(dns::EdeCode::kNsecMissing,
                           "negative response without denial proof");
    // Validate NSEC signatures and the covering/matching relation.
    bool covers_or_matches = false;
    for (const auto& rr : nsecs) {
      RrSet set;
      set.name = rr.name;
      set.type = RrType::kNsec;
      set.ttl = rr.ttl;
      set.rdatas = {rr.rdata};
      const auto sigs = sigs_for(response.authorities, rr.name, RrType::kNsec);
      if (!verify_rrset(set, sigs, ctx))
        return make_servfail(dns::EdeCode::kDnssecBogus,
                             "NSEC validation failed");
      const auto nsec = rr.as<dns::NsecRdata>();
      if (!nsec) continue;
      if (rr.name.equals(qname)) {
        if (!nsec->types.contains(qtype)) covers_or_matches = true;
      } else {
        // owner < qname < next (canonical order, wrapping chain).
        const bool owner_before =
            Name::canonical_compare(rr.name, qname) < 0;
        const bool next_after =
            Name::canonical_compare(qname, nsec->next_domain) < 0 ||
            Name::canonical_compare(nsec->next_domain, rr.name) <= 0;
        if (owner_before && next_after) covers_or_matches = true;
      }
    }
    if (!covers_or_matches)
      return make_servfail(dns::EdeCode::kDnssecBogus,
                           "NSEC proof does not cover the query name");
    Outcome out;
    out.rcode = response.header.rcode;
    out.authorities = response.authorities;
    out.security = Security::kSecure;
    return out;
  }

  if (!view.consistent)
    return make_servfail(dns::EdeCode::kDnssecBogus,
                         "inconsistent NSEC3 parameters");

  // RFC 9276 Items 6/8 fire on the advertised iteration count, *before* the
  // expensive proof verification.
  if (const auto policy_outcome =
          apply_iteration_policy(response, view.iterations, view.sets, ctx))
    return *policy_outcome;

  // Full validation: signatures first, then the closest-encloser proof.
  for (const auto& set : view.sets) {
    const auto sigs = sigs_for(response.authorities, set.name, RrType::kNsec3);
    if (!verify_rrset(set, sigs, ctx)) {
      const bool expired = std::any_of(
          sigs.begin(), sigs.end(),
          [](const dns::RrsigRdata& s) { return s.expiration < kNow; });
      return make_servfail(expired ? dns::EdeCode::kSignatureExpired
                                   : dns::EdeCode::kDnssecBogus,
                           "NSEC3 RRSIG validation failed");
    }
  }

  const CeProof proof =
      check_closest_encloser(qname, ctx.apex, view.rdatas, view.owner_hashes);
  if (!proof.valid)
    return make_servfail(dns::EdeCode::kDnssecBogus,
                         "NSEC3 closest-encloser proof invalid");

  Rcode expected;
  if (proof.name_exists) {
    if (proof.matched_bitmap.contains(qtype) ||
        proof.matched_bitmap.contains(RrType::kCname))
      return make_servfail(dns::EdeCode::kDnssecBogus,
                           "NODATA proof contradicts type bitmap");
    expected = Rcode::kNoError;
  } else if (proof.wildcard_matched) {
    expected = Rcode::kNoError;  // wildcard NODATA
  } else {
    expected = Rcode::kNxDomain;
  }
  if (response.header.rcode != expected)
    return make_servfail(dns::EdeCode::kDnssecBogus,
                         "RCODE contradicts NSEC3 proof");

  // The denial is fully validated (signatures + closest-encloser proof):
  // exactly the evidence RFC 8198 lets the aggressive cache reuse.
  if (neg_cache_) cache_nsec3_intervals(response, ctx);

  Outcome out;
  out.rcode = response.header.rcode;
  out.authorities = response.authorities;
  out.security = Security::kSecure;
  return out;
}

std::optional<RecursiveResolver::Outcome> RecursiveResolver::try_synthesize(
    const Name& qname, RrType qtype) {
  AggressiveNegCache::Synthesis synth = neg_cache_->lookup(qname, qtype);
  if (synth.opt_out_refusal) ++stats_.neg_synth_optout_refusals;
  if (!synth.found) return std::nullopt;
  ++stats_.neg_synth_hits;
  ++*neg_synth_hit_metric_;
  Outcome out;
  out.rcode = synth.rcode;
  out.security = Security::kSecure;
  out.authorities = std::move(synth.authorities);
  return out;
}

void RecursiveResolver::cache_nsec3_intervals(const Message& response,
                                              const ZoneContext& ctx) {
  Nsec3CacheParams params;
  std::vector<NegCacheInterval> intervals;
  for (const auto& rr : response.authorities) {
    if (rr.type != RrType::kNsec3) continue;
    const auto rdata = rr.as<dns::Nsec3Rdata>();
    const auto hash = dns::nsec3_owner_hash(rr.name, ctx.apex);
    if (!rdata || !hash) continue;  // validation already vouched; belt+braces
    if (intervals.empty()) {
      params.hash_algorithm = rdata->hash_algorithm;
      params.iterations = rdata->iterations;
      params.salt = rdata->salt;
    }
    NegCacheInterval interval;
    interval.owner_hash = *hash;
    interval.next_hash = rdata->next_hash;
    interval.opt_out = rdata->opt_out();
    interval.types = rdata->types;
    interval.record = rr;
    for (const auto& sig_rr : response.authorities) {
      if (sig_rr.type != RrType::kRrsig || !sig_rr.name.equals(rr.name))
        continue;
      const auto sig = sig_rr.as<dns::RrsigRdata>();
      if (sig && sig->covered() == RrType::kNsec3)
        interval.rrsigs.push_back(sig_rr);
    }
    intervals.push_back(std::move(interval));
  }
  if (intervals.empty()) return;
  if (neg_cache_->insert(ctx.apex, params, intervals))
    ++stats_.neg_cache_inserts;
}

}  // namespace zh::resolver
