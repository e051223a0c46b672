#include "zone/signer.hpp"

#include <algorithm>

#include "crypto/signing.hpp"
#include "dns/dnssec.hpp"
#include "dns/encoding.hpp"

namespace zh::zone {
namespace {

using dns::DnskeyRdata;
using dns::Name;
using dns::ResourceRecord;
using dns::RrSet;
using dns::RrType;

/// Returns the private signing key for a DNSKEY derived from `seed`.
crypto::SimKey sim_key(const std::string& seed, bool ksk) {
  return crypto::SimKey::derive(seed + (ksk ? "/ksk" : "/zsk"));
}

/// True if `name` is an insecure delegation point (NS, no DS, non-apex).
bool is_insecure_delegation(const Zone& zone, const Name& name,
                            const ZoneNode& node) {
  return !name.equals(zone.apex()) && node.has(RrType::kNs) &&
         !node.has(RrType::kDs);
}

/// True if `name` is any delegation point.
bool is_delegation(const Zone& zone, const Name& name, const ZoneNode& node) {
  return !name.equals(zone.apex()) && node.has(RrType::kNs);
}

/// True if `name` is occluded: strictly below a delegation point (glue).
bool is_occluded(const Zone& zone, const Name& name) {
  const auto cut = zone.delegation_for(name);
  return cut && !cut->equals(name);
}

/// Builds and signs an RRSIG over `rrset` with the zone's ZSK (or KSK for
/// the DNSKEY RRset, per convention). `signed_data` is scratch the caller
/// reuses across signatures.
ResourceRecord make_rrsig(const Zone& zone, const RrSet& rrset,
                          const SignerConfig& config,
                          const crypto::SimKey& key,
                          const DnskeyRdata& key_record,
                          std::uint32_t expiration,
                          std::vector<std::uint8_t>& signed_data) {
  dns::RrsigRdata presig;
  presig.type_covered = static_cast<std::uint16_t>(rrset.type);
  presig.algorithm =
      static_cast<std::uint8_t>(crypto::DnssecAlgorithm::kSimHmacSha256);
  presig.labels = dns::rrsig_label_count(rrset.name);
  presig.original_ttl = rrset.ttl;
  presig.expiration = expiration;
  presig.inception = config.inception;
  presig.key_tag = key_record.key_tag();
  presig.signer = zone.apex();

  dns::build_signed_data(presig, rrset, rrset.name, signed_data);
  const auto signature = key.sign(signed_data);
  presig.signature.assign(signature.begin(), signature.end());

  return ResourceRecord::make(rrset.name, RrType::kRrsig, rrset.ttl, presig);
}

/// Type bitmap for the NSEC/NSEC3 record at a node.
dns::TypeBitmap node_bitmap(const Zone& zone, const Name& name,
                            const ZoneNode& node, DenialMode denial,
                            bool will_be_signed) {
  dns::TypeBitmap bitmap;
  const bool delegation = is_delegation(zone, name, node);
  for (const RrSet& set : node.rrsets) {
    if (delegation && set.type != RrType::kNs && set.type != RrType::kDs)
      continue;
    bitmap.insert(set.type);
  }
  // RRSIG appears only where signed data lives: authoritative nodes with
  // records, or delegations that carry a (signed) DS.
  const bool has_signed_data =
      delegation ? node.has(RrType::kDs) : !node.empty();
  if (will_be_signed && has_signed_data) bitmap.insert(RrType::kRrsig);
  if (denial == DenialMode::kNsec && !node.empty())
    bitmap.insert(RrType::kNsec);
  return bitmap;
}

}  // namespace

dns::DnskeyRdata derive_dnskey(const std::string& seed, bool ksk) {
  const auto key = sim_key(seed, ksk);
  DnskeyRdata record;
  record.flags = DnskeyRdata::kFlagZoneKey;
  if (ksk) record.flags |= DnskeyRdata::kFlagSep;
  record.protocol = 3;
  record.algorithm =
      static_cast<std::uint8_t>(crypto::DnssecAlgorithm::kSimHmacSha256);
  record.public_key.assign(key.public_key().begin(), key.public_key().end());
  return record;
}

SigningResult sign_zone(Zone& zone, const SignerConfig& config) {
  const std::string seed =
      config.key_seed.empty() ? zone.apex().to_string() : config.key_seed;

  SigningResult result;
  result.ksk = derive_dnskey(seed, /*ksk=*/true);
  result.zsk = derive_dnskey(seed, /*ksk=*/false);
  result.ds = dns::make_ds(zone.apex(), result.ksk);

  if (config.denial == DenialMode::kUnsigned) return result;

  const crypto::SimKey ksk_key = sim_key(seed, true);
  const crypto::SimKey zsk_key = sim_key(seed, false);
  std::vector<std::uint8_t> signed_data;  // make_rrsig's reused scratch

  // 1. Publish the DNSKEY RRset (and NSEC3PARAM for NSEC3 zones).
  zone.add(ResourceRecord::make(zone.apex(), RrType::kDnskey,
                                config.dnskey_ttl, result.ksk));
  zone.add(ResourceRecord::make(zone.apex(), RrType::kDnskey,
                                config.dnskey_ttl, result.zsk));
  if (config.denial == DenialMode::kNsec3) {
    dns::Nsec3ParamRdata param;
    param.hash_algorithm = 1;
    param.flags = 0;  // flags are always 0 in NSEC3PARAM
    param.iterations = config.nsec3.iterations;
    param.salt = config.nsec3.salt;
    zone.add(ResourceRecord::make(zone.apex(), RrType::kNsec3Param, 0, param));
  }

  // The walks below read the nodes in canonical order.
  zone.freeze();

  // 2. Collect chain candidates before NSEC records mutate the nodes.
  struct Candidate {
    Name name;
    bool insecure_delegation = false;
  };
  std::vector<Candidate> candidates;
  zone.for_each_node([&](const Name& name, const ZoneNode& node) {
    if (is_occluded(zone, name)) return;  // glue below zone cuts
    candidates.push_back(
        Candidate{name, is_insecure_delegation(zone, name, node)});
  });

  // 3. Build the denial chain.
  if (config.denial == DenialMode::kNsec) {
    // NSEC at every name that owns data or is a delegation; empty
    // non-terminals own no NSEC (RFC 4035 — unlike NSEC3, where ENTs get
    // their own records). Linked in canonical order, wrapping to the apex.
    std::vector<Candidate> nsec_names;
    for (const Candidate& candidate : candidates)
      if (!zone.node(candidate.name)->empty()) nsec_names.push_back(candidate);
    for (std::size_t i = 0; i < nsec_names.size(); ++i) {
      const Name& name = nsec_names[i].name;
      const Name& next = nsec_names[(i + 1) % nsec_names.size()].name;
      const ZoneNode* node = zone.node(name);
      dns::NsecRdata nsec;
      nsec.next_domain = next;
      nsec.types = node_bitmap(zone, name, *node, DenialMode::kNsec,
                               /*will_be_signed=*/true);
      zone.add(ResourceRecord::make(name, RrType::kNsec, config.nsec_ttl,
                                    nsec));
    }
  } else {
    // NSEC3: hash every candidate (minus opted-out insecure delegations)
    // through dns::nsec3_hash_name, sort by hash, link circularly, and sign
    // each record.
    const std::uint32_t nsec3_expiration =
        config.nsec3_rrsig_expiration.value_or(config.expiration);
    const std::span<const std::uint8_t> salt_span(config.nsec3.salt.data(),
                                                  config.nsec3.salt.size());
    // Drop opted-out delegations first, so the reserve below is exact: the
    // zone keeps this vector, capacity included.
    if (config.nsec3.opt_out)
      std::erase_if(candidates, [](const Candidate& candidate) {
        return candidate.insecure_delegation;
      });

    std::vector<Nsec3ChainEntry> entries;
    entries.reserve(candidates.size());
    for (const Candidate& candidate : candidates) {
      Nsec3ChainEntry entry;
      const crypto::Nsec3Digest digest = dns::nsec3_hash_name(
          candidate.name, salt_span, config.nsec3.iterations);
      entry.hash.assign(digest.begin(), digest.end());
      entry.owner = zone.apex()
                        .prepended(dns::base32hex_encode(digest))
                        .value_or(zone.apex());
      entry.ttl = config.nsec_ttl;
      entry.rdata.hash_algorithm = 1;
      entry.rdata.flags =
          config.nsec3.opt_out ? dns::Nsec3Rdata::kFlagOptOut : 0;
      entry.rdata.iterations = config.nsec3.iterations;
      entry.rdata.salt = config.nsec3.salt;
      entry.rdata.types =
          node_bitmap(zone, candidate.name, *zone.node(candidate.name),
                      DenialMode::kNsec3, /*will_be_signed=*/true);
      entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const Nsec3ChainEntry& a, const Nsec3ChainEntry& b) {
                return std::lexicographical_compare(a.hash.begin(),
                                                    a.hash.end(),
                                                    b.hash.begin(),
                                                    b.hash.end());
              });
    for (std::size_t i = 0; i < entries.size(); ++i)
      entries[i].rdata.next_hash = entries[(i + 1) % entries.size()].hash;

    for (Nsec3ChainEntry& entry : entries) {
      RrSet set;
      set.name = entry.owner;
      set.type = RrType::kNsec3;
      set.ttl = entry.ttl;
      set.rdatas = {entry.rdata.encode()};
      entry.rrsigs.push_back(make_rrsig(zone, set, config, zsk_key,
                                        result.zsk, nsec3_expiration,
                                        signed_data));
    }
    zone.set_nsec3_chain(std::move(entries), config.nsec3);
  }

  // 4. Sign every authoritative RRset. DNSKEY is signed by the KSK,
  //    everything else by the ZSK; delegation NS/glue stay unsigned.
  std::vector<ResourceRecord> rrsigs;
  zone.for_each_node([&](const Name& name, const ZoneNode& node) {
    if (is_occluded(zone, name)) return;
    const bool delegation = is_delegation(zone, name, node);
    for (const RrSet& set : node.rrsets) {
      if (set.type == RrType::kRrsig) continue;
      if (delegation && set.type != RrType::kDs) continue;  // NS+glue unsigned
      if (set.type == RrType::kDnskey) {
        rrsigs.push_back(make_rrsig(zone, set, config, ksk_key, result.ksk,
                                    config.expiration, signed_data));
      } else {
        rrsigs.push_back(make_rrsig(zone, set, config, zsk_key, result.zsk,
                                    config.expiration, signed_data));
      }
    }
  });
  for (auto& rrsig : rrsigs) zone.add(std::move(rrsig));

  return result;
}

}  // namespace zh::zone
