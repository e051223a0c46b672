#include "server/auth_server.hpp"

#include <algorithm>

#include "dns/dnssec.hpp"

namespace zh::server {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::ResourceRecord;
using dns::RrSet;
using dns::RrType;
using zone::Zone;
using zone::ZoneNode;

/// Appends the RRSIGs at `node` covering `type`, optionally rewriting the
/// owner (wildcard synthesis keeps the wildcard's signature but the query
/// name as owner, RFC 4035 §3.1.3.2).
void append_rrsigs(std::vector<ResourceRecord>& section, const ZoneNode& node,
                   const Name& owner, RrType covered,
                   const Name* owner_override = nullptr) {
  const RrSet* sigs = node.find(RrType::kRrsig);
  if (!sigs) return;
  for (const auto& rdata : sigs->rdatas) {
    const auto sig = dns::RrsigRdata::decode(
        std::span<const std::uint8_t>(rdata.data(), rdata.size()));
    if (!sig || sig->covered() != covered) continue;
    section.push_back(ResourceRecord{owner_override ? *owner_override : owner,
                                     RrType::kRrsig, dns::RrClass::kIn,
                                     sigs->ttl, rdata});
  }
}

/// Appends a full RRset (+signatures when dnssec).
void append_rrset(std::vector<ResourceRecord>& section, const ZoneNode& node,
                  const RrSet& set, bool dnssec) {
  for (const auto& rr : set.to_records()) section.push_back(rr);
  if (dnssec) append_rrsigs(section, node, set.name, set.type);
}

/// State for assembling NSEC3 proofs without duplicate records.
class Nsec3ProofWriter {
 public:
  Nsec3ProofWriter(const Zone& zone, Message& response)
      : zone_(zone), response_(response) {
    if (zone_.nsec3_params_used()) params_ = *zone_.nsec3_params_used();
  }

  bool enabled() const { return zone_.nsec3_params_used().has_value(); }

  /// Adds the NSEC3 matching `name` (existence proof); no-op if absent.
  void add_matching(const Name& name) {
    emit(zone_.nsec3_matching(
        dns::nsec3_hash_name(name, params_.salt, params_.iterations)));
  }

  /// Adds the NSEC3 covering `name` (absence proof); no-op if none covers.
  void add_covering(const Name& name) {
    emit(zone_.nsec3_covering(
        dns::nsec3_hash_name(name, params_.salt, params_.iterations)));
  }

 private:
  void emit(const zone::Nsec3ChainEntry* entry) {
    if (!entry) return;
    for (const auto& emitted : emitted_)
      if (emitted == entry) return;
    emitted_.push_back(entry);
    response_.authorities.push_back(entry->to_record());
    for (const auto& sig : entry->rrsigs) response_.authorities.push_back(sig);
  }

  const Zone& zone_;
  Message& response_;
  zone::Nsec3Params params_;
  std::vector<const zone::Nsec3ChainEntry*> emitted_;
};

/// Appends the NSEC (+RRSIG) that matches or covers `name`, unless the
/// response already carries it.
void append_covering_nsec(const Zone& zone, const Name& name,
                          Message& response) {
  const ZoneNode* node = zone.nsec_covering(name);
  if (!node) return;
  const RrSet& nsec = *node->find(RrType::kNsec);
  const auto rr = nsec.to_records().front();
  for (const auto& existing : response.authorities)
    if (existing == rr) return;
  append_rrset(response.authorities, *node, nsec, /*dnssec=*/true);
}

/// Adds the SOA (+RRSIG) for negative answers.
void append_soa(const Zone& zone, bool dnssec, Message& response) {
  const ZoneNode* apex = zone.node(zone.apex());
  const RrSet* soa = apex ? apex->find(RrType::kSoa) : nullptr;
  if (soa) append_rrset(response.authorities, *apex, *soa, dnssec);
}

}  // namespace

void AuthoritativeServer::add_zone(std::shared_ptr<const Zone> zone) {
  zones_[zone->apex()] = std::move(zone);
}

void AuthoritativeServer::set_lazy_provider(ApexLocator locator,
                                            ZoneProvider provider,
                                            std::size_t cache_capacity) {
  locator_ = std::move(locator);
  provider_ = std::move(provider);
  cache_capacity_ = cache_capacity;
}

void AuthoritativeServer::set_lazy_cache_adaptive(
    std::size_t max_capacity, std::uint64_t resign_threshold) {
  max_cache_capacity_ = max_capacity;
  resign_threshold_ = resign_threshold > 0 ? resign_threshold : 1;
  resigns_at_last_growth_ = lazy_resigns_;
}

void AuthoritativeServer::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) {
    trace::Metrics& metrics = tracer->metrics();
    hit_metric_ = metrics.counter("server.zone_cache_hit");
    materialise_metric_ = metrics.counter("server.zone_materialise");
    evict_metric_ = metrics.counter("server.zone_evict");
    resign_metric_ = metrics.counter("server.zone_resign");
    grow_metric_ = metrics.counter("server.zone_cache_grow");
  } else {
    hit_metric_ = nullptr;
    materialise_metric_ = nullptr;
    evict_metric_ = nullptr;
    resign_metric_ = nullptr;
    grow_metric_ = nullptr;
  }
}

std::shared_ptr<const Zone> AuthoritativeServer::lazy_zone(
    const Name& apex) const {
  const auto hit = cache_.find(apex);
  if (hit != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second.second);
    ++lazy_hits_;
    if (hit_metric_ != nullptr) ++*hit_metric_;
    return hit->second.first;
  }
  trace::Span materialise_span;
  if (tracer_ != nullptr && tracer_->enabled())
    materialise_span = tracer_->span("server", "zone.materialise",
                                     apex.canonical().to_string());
  auto zone = provider_(apex);
  if (!zone) return nullptr;
  ++lazy_materialisations_;
  if (materialise_metric_ != nullptr) ++*materialise_metric_;
  if (evicted_.count(apex) > 0) {
    // This zone was materialised before and evicted since: the provider
    // just re-signed it from scratch.
    ++lazy_resigns_;
    if (resign_metric_ != nullptr) ++*resign_metric_;
    // Adaptive sizing: re-signs mean the working set outgrew the cache, and
    // each one re-hashes the whole zone — far costlier than the memory a
    // doubling spends. Grow before the insert below so the revived zone is
    // not immediately re-evicted.
    if (max_cache_capacity_ > cache_capacity_ &&
        lazy_resigns_ - resigns_at_last_growth_ >= resign_threshold_) {
      cache_capacity_ = std::min(max_cache_capacity_, cache_capacity_ * 2);
      resigns_at_last_growth_ = lazy_resigns_;
      ++lazy_growths_;
      if (grow_metric_ != nullptr) ++*grow_metric_;
      if (tracer_ != nullptr && tracer_->enabled())
        tracer_->instant("server", "zone.cache_grow",
                         std::to_string(cache_capacity_));
    }
  }
  lru_.push_front(apex);
  cache_.emplace(apex, std::make_pair(zone, lru_.begin()));
  if (cache_.size() > cache_capacity_) {
    const Name victim = lru_.back();
    evicted_.insert(victim);
    cache_.erase(victim);
    lru_.pop_back();
    ++lazy_evictions_;
    if (evict_metric_ != nullptr) ++*evict_metric_;
    if (tracer_ != nullptr && tracer_->enabled())
      tracer_->instant("server", "zone.evict", victim.canonical().to_string());
  }
  return zone;
}

std::shared_ptr<const Zone> AuthoritativeServer::zone_for(
    const Name& qname, dns::RrType qtype) const {
  // Deepest explicitly hosted zone containing qname. For DS queries the
  // *parent* side of the cut is authoritative, so the search skips a zone
  // whose apex equals qname when a shallower zone is also hosted.
  std::shared_ptr<const Zone> best;
  for (std::size_t labels = qname.label_count() + 1; labels-- > 0;) {
    const Name candidate = qname.ancestor_with_labels(labels);
    if (qtype == RrType::kDs && candidate.equals(qname) && labels > 0) {
      // Prefer the parent for DS unless nothing shallower is hosted.
      const auto it = zones_.find(candidate);
      if (it != zones_.end() && !best) best = it->second;
      continue;
    }
    const auto it = zones_.find(candidate);
    if (it != zones_.end()) return it->second;
    if (locator_) {
      // Lazy zones are leaf zones (registered domains); the locator decides.
      const auto apex = locator_(qname);
      if (apex && apex->equals(candidate)) {
        auto zone = lazy_zone(*apex);
        if (zone) return zone;
      }
    }
  }
  return best;
}

Message AuthoritativeServer::handle(const Message& query,
                                    const simnet::IpAddress& /*source*/) const {
  Message response = Message::make_response(query);
  response.header.ra = false;

  if (query.questions.empty()) {
    response.header.rcode = Rcode::kFormErr;
    return response;
  }
  if (query.header.opcode != dns::Opcode::kQuery) {
    response.header.rcode = Rcode::kNotImp;
    return response;
  }

  const dns::Question& q = query.questions.front();
  const bool dnssec = query.edns && query.edns->do_bit;

  const auto zone = zone_for(q.name, q.type);
  if (!zone) {
    response.header.rcode = Rcode::kRefused;
    return response;
  }
  response.header.aa = true;

  // --- Referral? ---
  const auto cut = zone->delegation_for(q.name);
  if (cut && !(cut->equals(q.name) && q.type == RrType::kDs)) {
    response.header.aa = false;
    const ZoneNode* cut_node = zone->node(*cut);
    const RrSet* ns = cut_node->find(RrType::kNs);
    append_rrset(response.authorities, *cut_node, *ns, /*dnssec=*/false);
    if (dnssec) {
      if (const RrSet* ds = cut_node->find(RrType::kDs)) {
        append_rrset(response.authorities, *cut_node, *ds, true);
      } else if (zone->nsec3_params_used()) {
        // Proof of no DS: matching NSEC3 for the cut, or (opt-out) the
        // covering NSEC3 plus closest-provable-encloser match.
        Nsec3ProofWriter proof(*zone, response);
        proof.add_matching(*cut);
        proof.add_covering(*cut);
        proof.add_matching(zone->closest_encloser(*cut));
      } else if (const RrSet* nsec = cut_node->find(RrType::kNsec)) {
        append_rrset(response.authorities, *cut_node, *nsec, true);
      }
    }
    // Glue.
    for (const auto& rdata : ns->rdatas) {
      const auto nsd = dns::NsRdata::decode(
          std::span<const std::uint8_t>(rdata.data(), rdata.size()));
      if (!nsd || !nsd->nsdname.is_subdomain_of(zone->apex())) continue;
      const ZoneNode* glue = zone->node(nsd->nsdname);
      if (!glue) continue;
      if (const RrSet* a = glue->find(RrType::kA))
        append_rrset(response.additionals, *glue, *a, false);
      if (const RrSet* aaaa = glue->find(RrType::kAaaa))
        append_rrset(response.additionals, *glue, *aaaa, false);
    }
    return response;
  }

  const ZoneNode* node = zone->node(q.name);
  if (node) {
    // CNAME redirection (when not asking for the CNAME itself).
    if (q.type != RrType::kCname && node->has(RrType::kCname)) {
      append_rrset(response.answers, *node, *node->find(RrType::kCname),
                   dnssec);
      return response;
    }
    if (const RrSet* set = node->find(q.type)) {
      append_rrset(response.answers, *node, *set, dnssec);
      return response;
    }
    // NODATA.
    append_soa(*zone, dnssec, response);
    if (dnssec) {
      if (zone->nsec3_params_used()) {
        Nsec3ProofWriter proof(*zone, response);
        proof.add_matching(q.name);
      } else if (const RrSet* nsec = node->find(RrType::kNsec)) {
        append_rrset(response.authorities, *node, *nsec, true);
      } else {
        append_covering_nsec(*zone, q.name, response);  // NODATA at an ENT
      }
    }
    return response;
  }

  // Name does not exist: wildcard or NXDOMAIN.
  const Name ce = zone->closest_encloser(q.name);
  const Name next_closer = q.name.ancestor_with_labels(ce.label_count() + 1);
  const Name wildcard = ce.wildcard_child();
  const ZoneNode* wnode = zone->node(wildcard);

  if (wnode && wnode->find(q.type)) {
    // Wildcard expansion (RFC 4035 §3.1.3.3, RFC 5155 §7.2.6).
    const RrSet* set = wnode->find(q.type);
    for (auto rr : set->to_records()) {
      rr.name = q.name;
      response.answers.push_back(std::move(rr));
    }
    if (dnssec) {
      append_rrsigs(response.answers, *wnode, wildcard, q.type, &q.name);
      if (zone->nsec3_params_used()) {
        Nsec3ProofWriter proof(*zone, response);
        proof.add_covering(next_closer);
      } else {
        append_covering_nsec(*zone, q.name, response);
      }
    }
    return response;
  }

  if (wnode) {
    // Wildcard exists but lacks the type: wildcard NODATA (RFC 5155 §7.2.5).
    append_soa(*zone, dnssec, response);
    if (dnssec) {
      if (zone->nsec3_params_used()) {
        Nsec3ProofWriter proof(*zone, response);
        proof.add_matching(ce);
        proof.add_covering(next_closer);
        proof.add_matching(wildcard);
      } else {
        append_covering_nsec(*zone, q.name, response);
        if (const RrSet* nsec = wnode->find(RrType::kNsec))
          append_rrset(response.authorities, *wnode, *nsec, true);
      }
    }
    return response;
  }

  // NXDOMAIN with closest-encloser proof (RFC 5155 §7.2.2).
  response.header.rcode = Rcode::kNxDomain;
  append_soa(*zone, dnssec, response);
  if (dnssec) {
    if (zone->nsec3_params_used()) {
      Nsec3ProofWriter proof(*zone, response);
      proof.add_matching(ce);
      proof.add_covering(next_closer);
      proof.add_covering(wildcard);
    } else {
      append_covering_nsec(*zone, q.name, response);
      append_covering_nsec(*zone, wildcard, response);
    }
  }
  return response;
}

}  // namespace zh::server
