// Unit tests for the zone model and the DNSSEC signer: empty non-terminals,
// closest enclosers, delegations, the frozen store against a std::map
// reference, NSEC/NSEC3 chain construction, opt-out, signature validity,
// the expired-signature overrides, and the signer's hashing through the
// NSEC3 digest memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/cost_meter.hpp"
#include "crypto/nsec3_memo.hpp"
#include "crypto/signing.hpp"
#include "dns/dnssec.hpp"
#include "zone/chain_memo.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace zh::zone {
namespace {

using dns::Name;
using dns::RrType;

Zone example_zone() {
  Zone zone(Name::must_parse("example.com"));
  zone.add(dns::make_soa(zone.apex(), 3600,
                         Name::must_parse("ns1.example.com"), 1));
  zone.add(dns::make_ns(zone.apex(), 3600, Name::must_parse("ns1.example.com")));
  zone.add(dns::make_a(Name::must_parse("ns1.example.com"), 3600, 192, 0, 2, 53));
  zone.add(dns::make_a(Name::must_parse("www.example.com"), 300, 192, 0, 2, 80));
  zone.add(dns::make_txt(Name::must_parse("api.example.com"), 300, "v1"));
  // Deep name creates empty non-terminal "deep.example.com".
  zone.add(dns::make_a(Name::must_parse("host.deep.example.com"), 300, 192, 0,
                       2, 99));
  return zone;
}

TEST(Zone, AddRejectsOutOfZoneNames) {
  Zone zone(Name::must_parse("example.com"));
  EXPECT_FALSE(zone.add(dns::make_a(Name::must_parse("example.org"), 60, 1, 2,
                                    3, 4)));
  EXPECT_TRUE(zone.add(dns::make_a(Name::must_parse("example.com"), 60, 1, 2,
                                   3, 4)));
}

TEST(Zone, EmptyNonTerminalsMaterialised) {
  const Zone zone = example_zone();
  const ZoneNode* ent = zone.node(Name::must_parse("deep.example.com"));
  ASSERT_NE(ent, nullptr);
  EXPECT_TRUE(ent->empty());
  EXPECT_TRUE(zone.name_exists(Name::must_parse("deep.example.com")));
}

TEST(Zone, DuplicateRecordsCollapse) {
  Zone zone(Name::must_parse("example.com"));
  const auto rr = dns::make_a(zone.apex(), 60, 1, 2, 3, 4);
  zone.add(rr);
  zone.add(rr);
  EXPECT_EQ(zone.find(zone.apex(), RrType::kA)->size(), 1u);
}

TEST(Zone, MinTtlWins) {
  Zone zone(Name::must_parse("example.com"));
  zone.add(dns::make_a(zone.apex(), 600, 1, 2, 3, 4));
  zone.add(dns::make_a(zone.apex(), 60, 5, 6, 7, 8));
  EXPECT_EQ(zone.find(zone.apex(), RrType::kA)->ttl, 60u);
}

TEST(Zone, ClosestEncloser) {
  const Zone zone = example_zone();
  EXPECT_TRUE(zone.closest_encloser(Name::must_parse("nope.example.com"))
                  .equals(zone.apex()));
  EXPECT_TRUE(zone.closest_encloser(Name::must_parse("a.b.www.example.com"))
                  .equals(Name::must_parse("www.example.com")));
  EXPECT_TRUE(zone.closest_encloser(Name::must_parse("x.deep.example.com"))
                  .equals(Name::must_parse("deep.example.com")));
  EXPECT_TRUE(zone.closest_encloser(Name::must_parse("www.example.com"))
                  .equals(Name::must_parse("www.example.com")));
}

TEST(Zone, DelegationDetection) {
  Zone zone = example_zone();
  zone.add(dns::make_ns(Name::must_parse("child.example.com"), 3600,
                        Name::must_parse("ns1.child.example.com")));
  zone.add(dns::make_a(Name::must_parse("ns1.child.example.com"), 3600, 192,
                       0, 2, 10));  // glue

  EXPECT_FALSE(zone.delegation_for(Name::must_parse("www.example.com")));
  const auto cut = zone.delegation_for(Name::must_parse("child.example.com"));
  ASSERT_TRUE(cut);
  EXPECT_TRUE(cut->equals(Name::must_parse("child.example.com")));
  const auto below =
      zone.delegation_for(Name::must_parse("a.b.child.example.com"));
  ASSERT_TRUE(below);
  EXPECT_TRUE(below->equals(Name::must_parse("child.example.com")));
  // Apex NS is not a delegation.
  EXPECT_FALSE(zone.delegation_for(zone.apex()));
}

TEST(Zone, NamesInCanonicalOrder) {
  Zone zone = example_zone();
  zone.freeze();
  std::vector<Name> names;
  zone.for_each_node(
      [&](const Name& name, const ZoneNode&) { names.push_back(name); });
  ASSERT_GE(names.size(), 2u);
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_TRUE(Name::canonical_compare(names[i - 1], names[i]) < 0);
  EXPECT_TRUE(names.front().equals(zone.apex()));
}

// --- The store against a reference ---------------------------------------

/// Reference model of the store: ordered std::maps, which hold canonical
/// order after every insert and need no freeze, with one std::map of
/// RRsets per node.
struct CanonicalLess {
  bool operator()(const Name& a, const Name& b) const {
    return Name::canonical_compare(a, b) < 0;
  }
};
using ReferenceZone =
    std::map<Name, std::map<RrType, dns::RrSet>, CanonicalLess>;

void reference_add(ReferenceZone& ref, const Name& apex,
                   const dns::ResourceRecord& rr) {
  if (!rr.name.is_subdomain_of(apex)) return;
  for (std::size_t labels = apex.label_count() + 1;
       labels < rr.name.label_count(); ++labels)
    ref.try_emplace(rr.name.ancestor_with_labels(labels));
  auto& sets = ref[rr.name];
  dns::RrSet& set =
      sets.try_emplace(rr.type, dns::RrSet{rr.name, rr.type, rr.klass,
                                           rr.ttl, {}})
          .first->second;
  set.ttl = std::min(set.ttl, rr.ttl);
  if (std::find(set.rdatas.begin(), set.rdatas.end(), rr.rdata) ==
      set.rdatas.end())
    set.rdatas.push_back(rr.rdata);
}

std::string reference_text(const ReferenceZone& ref) {
  std::string out;
  for (const auto& [name, sets] : ref)
    for (const auto& [type, set] : sets)
      for (const auto& rr : set.to_records()) out += rr.to_string() + '\n';
  return out;
}

Name reference_closest_encloser(const ReferenceZone& ref, const Name& apex,
                                const Name& name) {
  if (!name.is_subdomain_of(apex)) return apex;
  for (std::size_t labels = name.label_count(); labels > apex.label_count();
       --labels) {
    Name ancestor = name.ancestor_with_labels(labels);
    if (ref.count(ancestor) > 0) return ancestor;
  }
  return apex;
}

std::optional<Name> reference_delegation_for(const ReferenceZone& ref,
                                             const Name& apex,
                                             const Name& name) {
  for (std::size_t labels = apex.label_count() + 1;
       labels <= name.label_count(); ++labels) {
    Name ancestor = name.ancestor_with_labels(labels);
    const auto it = ref.find(ancestor);
    if (it != ref.end() && it->second.count(RrType::kNs) > 0) return ancestor;
  }
  return std::nullopt;
}

/// Records for about 2,000 owner names under `apex`, in a fixed order: 1–5
/// labels below the apex, drawn from a pool of mixed-case labels, each
/// spelled one way everywhere (a name keeps the spelling it was first added
/// with, so two spellings of one name would make the order show); wildcard
/// owners; delegations, some secure, with in-bailiwick glue; RRsets of two
/// records whose TTLs may differ; exact duplicates; and out-of-zone owners.
std::vector<dns::ResourceRecord> random_records(const Name& apex,
                                                std::mt19937& rng) {
  std::vector<std::string> pool;
  std::set<std::string> lowered;
  while (pool.size() < 40) {
    std::string label(1 + rng() % 7, 'a');
    for (char& c : label) c = static_cast<char>('a' + rng() % 26);
    if (!lowered.insert(label).second) continue;
    for (char& c : label)
      if (rng() % 2) c = static_cast<char>(std::toupper(c));
    pool.push_back(label);
  }
  const auto below = [&](const Name& parent, std::size_t depth) {
    Name name = parent;
    for (std::size_t i = 0; i < depth; ++i)
      name = *name.prepended(pool[rng() % pool.size()]);
    return name;
  };
  const auto address = [&](const Name& owner) {
    return dns::make_a(owner, 300 + rng() % 3 * 300, 192, 0,
                       static_cast<std::uint8_t>(rng() % 3),
                       static_cast<std::uint8_t>(rng() % 250));
  };

  std::vector<dns::ResourceRecord> records;
  const Name primary = *apex.prepended("ns1");
  records.push_back(dns::make_soa(apex, 3600, primary, 1));
  records.push_back(dns::make_ns(apex, 3600, primary));
  records.push_back(dns::make_a(primary, 3600, 192, 0, 2, 53));
  std::set<std::string> owners;
  while (owners.size() < 2000) {
    const std::size_t kind = rng() % 10;
    if (kind == 0) {  // an exact duplicate
      const dns::ResourceRecord copy = records[rng() % records.size()];
      records.push_back(copy);
      continue;
    }
    if (kind == 1) {  // out of zone: add() rejects it
      records.push_back(address(below(Name::must_parse("elsewhere.test"),
                                      1 + rng() % 2)));
      continue;
    }
    Name owner = below(apex, 1 + rng() % 5);
    if (kind == 2 && owner.label_count() > apex.label_count() + 1) {
      owner = *owner.ancestor_with_labels(owner.label_count() - 1)
                   .prepended("*");
      records.push_back(address(owner));
    } else if (kind <= 4) {  // a delegation with glue, secure half the time
      const Name ns = *owner.prepended("ns1");
      records.push_back(dns::make_ns(owner, 86400, ns));
      records.push_back(dns::make_ns(owner, 86400,
                                     Name::must_parse("ns.elsewhere.test")));
      records.push_back(dns::make_a(ns, 86400, 10, 0, 0,
                                    static_cast<std::uint8_t>(rng() % 250)));
      if (rng() % 2) {
        dns::DsRdata ds;
        ds.key_tag = static_cast<std::uint16_t>(rng());
        ds.algorithm = 253;
        ds.digest_type = 2;
        ds.digest.assign(32, static_cast<std::uint8_t>(rng()));
        records.push_back(
            dns::ResourceRecord::make(owner, RrType::kDs, 86400, ds));
      }
      owners.insert(ns.canonical().to_string());
    } else {  // data: an RRset of one or two records, maybe a TXT beside
      records.push_back(address(owner));
      if (rng() % 3 == 0) records.push_back(address(owner));
      if (rng() % 3 == 0)
        records.push_back(
            dns::make_txt(owner, 60, "v" + std::to_string(rng() % 4)));
    }
    owners.insert(owner.canonical().to_string());
  }
  return records;
}

/// `records` in a random order that keeps each RRset's records in their
/// given order: an RRset lists its rdatas as they arrived, and that order
/// is part of what the zone prints.
std::vector<dns::ResourceRecord> shuffled(
    const std::vector<dns::ResourceRecord>& records, std::mt19937& rng) {
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  const auto rrset_of = [&](std::size_t i) {
    return std::make_pair(records[i].name.canonical().to_string(),
                          records[i].type);
  };
  std::map<std::pair<std::string, RrType>, std::vector<std::size_t>> slots;
  std::map<std::pair<std::string, RrType>, std::vector<std::size_t>> members;
  for (std::size_t at = 0; at < order.size(); ++at)
    slots[rrset_of(order[at])].push_back(at);
  for (std::size_t i = 0; i < records.size(); ++i)
    members[rrset_of(i)].push_back(i);
  std::vector<dns::ResourceRecord> out(records.size());
  for (const auto& [rrset, at] : slots)
    for (std::size_t j = 0; j < at.size(); ++j)
      out[at[j]] = records[members.at(rrset)[j]];
  return out;
}

std::string upper(const Name& name) {
  std::string text = name.to_string();
  for (char& c : text) c = static_cast<char>(std::toupper(c));
  return text;
}

/// Every lookup of `zone` against the reference, for each name it holds (in
/// its own spelling and upper-cased) and for each of `absent`.
void expect_lookups_match(const Zone& zone, const ReferenceZone& ref,
                          const std::vector<Name>& absent) {
  const Name& apex = zone.apex();
  const auto check = [&](const Name& name) {
    SCOPED_TRACE(name.to_string());
    const auto it = ref.find(name);
    const ZoneNode* node = zone.node(name);
    ASSERT_EQ(node != nullptr, it != ref.end());
    EXPECT_EQ(zone.name_exists(name), it != ref.end());
    for (const RrType type : {RrType::kA, RrType::kNs, RrType::kTxt,
                              RrType::kDs, RrType::kSoa, RrType::kAaaa}) {
      const dns::RrSet* set = zone.find(name, type);
      const bool in_ref = it != ref.end() && it->second.count(type) > 0;
      ASSERT_EQ(set != nullptr, in_ref) << static_cast<int>(type);
      if (set) {
        EXPECT_EQ(set->rdatas, it->second.at(type).rdatas);
      }
      if (node) {
        EXPECT_EQ(node->find(type), set);
      }
    }
    EXPECT_EQ(zone.closest_encloser(name).to_string(),
              reference_closest_encloser(ref, apex, name).to_string());
    const auto cut = zone.delegation_for(name);
    const auto ref_cut = reference_delegation_for(ref, apex, name);
    ASSERT_EQ(cut.has_value(), ref_cut.has_value());
    if (cut) {
      EXPECT_EQ(cut->to_string(), ref_cut->to_string());
    }
  };
  for (const auto& [name, sets] : ref) {
    check(name);
    EXPECT_EQ(zone.node(Name::must_parse(upper(name))), zone.node(name));
  }
  for (const Name& name : absent) check(name);
}

/// The frozen walk against the reference: the same names in the same
/// order and spelling, and the same RRsets in type order.
void expect_walk_matches(const Zone& zone, const ReferenceZone& ref) {
  auto it = ref.begin();
  zone.for_each_node([&](const Name& name, const ZoneNode& node) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(name.to_string(), it->first.to_string());
    ASSERT_EQ(node.rrsets.size(), it->second.size()) << name.to_string();
    auto set = it->second.begin();
    for (const dns::RrSet& got : node.rrsets) {
      EXPECT_EQ(got.type, set->first);
      EXPECT_EQ(got.name.to_string(), set->second.name.to_string());
      EXPECT_EQ(got.ttl, set->second.ttl);
      EXPECT_EQ(got.rdatas, set->second.rdatas);
      ++set;
    }
    ++it;
  });
  EXPECT_EQ(it, ref.end());
}

TEST(Zone, StoreMatchesOrderedMapReference) {
  std::mt19937 rng(20240315);
  const Name apex = Name::must_parse("Ref.Example");
  const std::vector<dns::ResourceRecord> records = random_records(apex, rng);

  ReferenceZone ref;
  std::size_t reference_records = 0;
  for (const auto& rr : records) reference_add(ref, apex, rr);
  for (const auto& [name, sets] : ref)
    for (const auto& [type, set] : sets) reference_records += set.size();
  ASSERT_GE(ref.size(), 2000u);

  // Absent names: below every held name, beside them, and out of zone.
  std::vector<Name> absent;
  for (const auto& [name, sets] : ref) {
    if (absent.size() >= 1500) break;
    absent.push_back(*name.prepended("x-1"));
    absent.push_back(*name.prepended("x-1").value().prepended("x-2"));
  }
  absent.push_back(Name::must_parse("absent.elsewhere.test"));
  absent.push_back(Name::must_parse("example"));
  absent.push_back(Name::root());
  for (const Name& name : absent) ASSERT_EQ(ref.count(name), 0u);

  std::vector<Zone> zones;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    Zone zone(apex);
    for (const auto& rr : shuffled(records, rng))
      EXPECT_EQ(zone.add(rr), rr.name.is_subdomain_of(apex));
    EXPECT_FALSE(zone.frozen());
    EXPECT_EQ(zone.record_count(), reference_records);
    expect_lookups_match(zone, ref, absent);

    zone.freeze();
    ASSERT_TRUE(zone.frozen());
    EXPECT_EQ(zone.record_count(), reference_records);
    expect_walk_matches(zone, ref);
    EXPECT_EQ(zone.to_text(), reference_text(ref));
    expect_lookups_match(zone, ref, absent);
    zones.push_back(std::move(zone));
  }

  // Signing reads the frozen order: both insertion orders sign to the
  // same bytes under NSEC and under NSEC3 opt-out.
  SignerConfig nsec;
  nsec.denial = DenialMode::kNsec;
  SignerConfig opt_out;
  opt_out.nsec3.opt_out = true;
  for (const SignerConfig& config : {nsec, opt_out}) {
    Zone first = zones[0];
    Zone second = zones[1];
    sign_zone(first, config);
    sign_zone(second, config);
    EXPECT_TRUE(first.frozen());
    const std::string text = first.to_text();
    EXPECT_GT(text.size(), reference_text(ref).size());
    EXPECT_EQ(text, second.to_text());
  }
}

TEST(Zone, OrderedReadOfAnUnfrozenZoneThrows) {
  Zone zone = example_zone();
  ASSERT_FALSE(zone.frozen());
  EXPECT_THROW(zone.to_text(), std::logic_error);
  EXPECT_THROW(zone.for_each_node([](const Name&, const ZoneNode&) {}),
               std::logic_error);
  EXPECT_THROW(zone.nsec_covering(zone.apex()), std::logic_error);
  // Lookups need no order.
  EXPECT_NE(zone.find(Name::must_parse("www.example.com"), RrType::kA),
            nullptr);

  zone.freeze();
  const std::string frozen_text = zone.to_text();
  // A record at a name the zone holds keeps it frozen...
  zone.add(dns::make_txt(Name::must_parse("www.example.com"), 300, "kept"));
  EXPECT_TRUE(zone.frozen());
  EXPECT_NE(zone.to_text(), frozen_text);
  // ...and a new name unfreezes it until the next freeze().
  zone.add(dns::make_a(Name::must_parse("new.example.com"), 300, 192, 0, 2,
                       1));
  EXPECT_FALSE(zone.frozen());
  EXPECT_THROW(zone.to_text(), std::logic_error);
  zone.freeze();
  EXPECT_NE(zone.to_text().find("new.example.com."), std::string::npos);
}

TEST(Zone, NsecCoveringWalksBackToTheNearestNsecOwner) {
  Zone zone = example_zone();
  SignerConfig config;
  config.denial = DenialMode::kNsec;
  sign_zone(zone, config);
  const auto owner_of = [&](const char* name) {
    const ZoneNode* node = zone.nsec_covering(Name::must_parse(name));
    return node ? node->find(RrType::kNsec)->name.to_string() : "none";
  };
  // An NSEC owner matches itself; an ENT and the names after it fall back
  // to the owner before them; names before the first node wrap to the last.
  EXPECT_EQ(owner_of("www.example.com"), "www.example.com.");
  EXPECT_EQ(owner_of("deep.example.com"), "api.example.com.");
  EXPECT_EQ(owner_of("b.example.com"), "api.example.com.");
  EXPECT_EQ(owner_of("zzz.example.com"), "www.example.com.");
  EXPECT_EQ(owner_of("a.host.deep.example.com"), "host.deep.example.com.");
  EXPECT_EQ(owner_of("com"), "www.example.com.");

  Zone unsigned_zone = example_zone();
  unsigned_zone.freeze();
  EXPECT_EQ(unsigned_zone.nsec_covering(zone.apex()), nullptr);
}

TEST(Zone, FrozenZoneReadsFromTwoThreads) {
  auto built = std::make_shared<Zone>(example_zone());
  SignerConfig config;
  config.denial = DenialMode::kNsec;
  sign_zone(*built, config);
  const std::shared_ptr<const Zone> zone = built;

  // Every read a server makes, over every node and a name below each.
  const auto read = [&zone] {
    std::string out;
    for (int round = 0; round < 20; ++round) {
      out.clear();
      zone->for_each_node([&](const Name& name, const ZoneNode& node) {
        const Name child = *name.prepended("absent");
        out += name.to_string();
        out += zone->node(name) == &node ? " found" : " lost";
        out += " ce=" + zone->closest_encloser(child).to_string();
        out += zone->delegation_for(child) ? " cut" : " auth";
        const ZoneNode* covering = zone->nsec_covering(child);
        out += " nsec=" + covering->find(RrType::kNsec)->name.to_string();
        out += '\n';
      });
      out += zone->to_text();
    }
    return out;
  };
  std::string first;
  std::string second;
  std::thread a([&] { first = read(); });
  std::thread b([&] { second = read(); });
  a.join();
  b.join();
  const std::string expected = read();
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);
  EXPECT_EQ(expected.find(" lost"), std::string::npos);
}

TEST(Signer, PublishesDnskeysAndNsec3Param) {
  Zone zone = example_zone();
  SignerConfig config;
  config.nsec3.iterations = 5;
  config.nsec3.salt = {0xab, 0xcd};
  const SigningResult result = sign_zone(zone, config);

  const auto* dnskeys = zone.find(zone.apex(), RrType::kDnskey);
  ASSERT_NE(dnskeys, nullptr);
  EXPECT_EQ(dnskeys->size(), 2u);

  const auto param = zone.nsec3param();
  ASSERT_TRUE(param);
  EXPECT_EQ(param->iterations, 5);
  EXPECT_EQ(param->salt.size(), 2u);

  EXPECT_TRUE(result.ksk.is_sep());
  EXPECT_FALSE(result.zsk.is_sep());
  EXPECT_TRUE(dns::ds_matches_key(result.ds, zone.apex(), result.ksk));
}

TEST(Signer, Nsec3ChainIsSortedAndCircular) {
  Zone zone = example_zone();
  SignerConfig config;
  sign_zone(zone, config);

  const auto& entries = zone.nsec3_entries();
  ASSERT_GE(entries.size(), 5u);  // apex, ns1, www, api, deep, host.deep
  std::set<std::vector<std::uint8_t>> hashes;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    hashes.insert(entries[i].hash);
    if (i > 0) {
      EXPECT_LT(entries[i - 1].hash, entries[i].hash);
    }
    EXPECT_EQ(entries[i].rdata.next_hash,
              entries[(i + 1) % entries.size()].hash);
  }
  EXPECT_EQ(hashes.size(), entries.size());
}

TEST(Signer, Nsec3ChainIncludesEmptyNonTerminals) {
  Zone zone = example_zone();
  SignerConfig config;
  sign_zone(zone, config);

  const auto hash = dns::nsec3_hash_name(
      Name::must_parse("deep.example.com"), {}, 0);
  const auto* entry = zone.nsec3_matching(
      std::span<const std::uint8_t>(hash.data(), hash.size()));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->rdata.types.empty());  // ENT owns no types
}

TEST(Signer, Nsec3MatchingAndCovering) {
  Zone zone = example_zone();
  SignerConfig config;
  config.nsec3.iterations = 3;
  sign_zone(zone, config);

  const auto www_hash = dns::nsec3_hash_name(
      Name::must_parse("www.example.com"), {}, 3);
  EXPECT_NE(zone.nsec3_matching(std::span<const std::uint8_t>(
                www_hash.data(), www_hash.size())),
            nullptr);

  const auto absent_hash = dns::nsec3_hash_name(
      Name::must_parse("nonexistent.example.com"), {}, 3);
  EXPECT_EQ(zone.nsec3_matching(std::span<const std::uint8_t>(
                absent_hash.data(), absent_hash.size())),
            nullptr);
  const auto* covering = zone.nsec3_covering(std::span<const std::uint8_t>(
      absent_hash.data(), absent_hash.size()));
  ASSERT_NE(covering, nullptr);
  EXPECT_TRUE(dns::nsec3_covers(
      std::span<const std::uint8_t>(covering->hash.data(),
                                    covering->hash.size()),
      std::span<const std::uint8_t>(covering->rdata.next_hash.data(),
                                    covering->rdata.next_hash.size()),
      std::span<const std::uint8_t>(absent_hash.data(), absent_hash.size())));
}

TEST(Signer, OptOutSkipsInsecureDelegations) {
  Zone zone = example_zone();
  zone.add(dns::make_ns(Name::must_parse("insecure.example.com"), 3600,
                        Name::must_parse("ns.elsewhere.net")));
  zone.add(dns::make_ns(Name::must_parse("secure.example.com"), 3600,
                        Name::must_parse("ns.elsewhere.net")));
  dns::DsRdata ds;
  ds.key_tag = 1;
  ds.algorithm = 253;
  ds.digest.assign(32, 0x11);
  zone.add(dns::ResourceRecord::make(Name::must_parse("secure.example.com"),
                                     RrType::kDs, 3600, ds));

  SignerConfig config;
  config.nsec3.opt_out = true;
  sign_zone(zone, config);

  const auto insecure_hash = dns::nsec3_hash_name(
      Name::must_parse("insecure.example.com"), {}, 0);
  const auto secure_hash = dns::nsec3_hash_name(
      Name::must_parse("secure.example.com"), {}, 0);
  EXPECT_EQ(zone.nsec3_matching(std::span<const std::uint8_t>(
                insecure_hash.data(), insecure_hash.size())),
            nullptr)
      << "opt-out zones omit insecure delegations from the chain";
  EXPECT_NE(zone.nsec3_matching(std::span<const std::uint8_t>(
                secure_hash.data(), secure_hash.size())),
            nullptr);
  for (const auto& entry : zone.nsec3_entries())
    EXPECT_TRUE(entry.rdata.opt_out());
}

TEST(Signer, WithoutOptOutInsecureDelegationsInChain) {
  Zone zone = example_zone();
  zone.add(dns::make_ns(Name::must_parse("insecure.example.com"), 3600,
                        Name::must_parse("ns.elsewhere.net")));
  SignerConfig config;  // opt_out = false
  sign_zone(zone, config);

  const auto hash = dns::nsec3_hash_name(
      Name::must_parse("insecure.example.com"), {}, 0);
  const auto* entry = zone.nsec3_matching(
      std::span<const std::uint8_t>(hash.data(), hash.size()));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->rdata.types.contains(RrType::kNs));
  EXPECT_FALSE(entry->rdata.types.contains(RrType::kRrsig))
      << "insecure delegations carry no signed data";
  EXPECT_FALSE(entry->rdata.opt_out());
}

TEST(Signer, GlueIsNeitherSignedNorChained) {
  Zone zone = example_zone();
  zone.add(dns::make_ns(Name::must_parse("child.example.com"), 3600,
                        Name::must_parse("ns1.child.example.com")));
  zone.add(dns::make_a(Name::must_parse("ns1.child.example.com"), 3600, 192,
                       0, 2, 10));
  SignerConfig config;
  sign_zone(zone, config);

  const auto glue_hash = dns::nsec3_hash_name(
      Name::must_parse("ns1.child.example.com"), {}, 0);
  EXPECT_EQ(zone.nsec3_matching(std::span<const std::uint8_t>(
                glue_hash.data(), glue_hash.size())),
            nullptr);
  EXPECT_EQ(zone.find(Name::must_parse("ns1.child.example.com"),
                      RrType::kRrsig),
            nullptr);
  // Delegation NS itself is unsigned too.
  const auto* rrsigs =
      zone.find(Name::must_parse("child.example.com"), RrType::kRrsig);
  EXPECT_EQ(rrsigs, nullptr);
}

TEST(Signer, SignaturesVerify) {
  Zone zone = example_zone();
  SignerConfig config;
  const SigningResult result = sign_zone(zone, config);

  const auto* a_set = zone.find(Name::must_parse("www.example.com"),
                                RrType::kA);
  const auto* rrsig_set = zone.find(Name::must_parse("www.example.com"),
                                    RrType::kRrsig);
  ASSERT_NE(a_set, nullptr);
  ASSERT_NE(rrsig_set, nullptr);

  bool verified = false;
  for (const auto& rdata : rrsig_set->rdatas) {
    const auto sig = dns::RrsigRdata::decode(
        std::span<const std::uint8_t>(rdata.data(), rdata.size()));
    ASSERT_TRUE(sig);
    if (sig->covered() != RrType::kA) continue;
    EXPECT_EQ(sig->key_tag, result.zsk.key_tag());
    std::vector<std::uint8_t> data;
    dns::build_signed_data(*sig, *a_set, a_set->name, data);
    crypto::SimPublicKey pk{};
    std::copy(result.zsk.public_key.begin(), result.zsk.public_key.end(),
              pk.begin());
    EXPECT_TRUE(crypto::sim_verify(
        pk, std::span<const std::uint8_t>(data.data(), data.size()),
        std::span<const std::uint8_t>(sig->signature.data(),
                                      sig->signature.size())));
    verified = true;
  }
  EXPECT_TRUE(verified);
}

TEST(Signer, DnskeySignedByKsk) {
  Zone zone = example_zone();
  SignerConfig config;
  const SigningResult result = sign_zone(zone, config);

  const auto* rrsig_set = zone.find(zone.apex(), RrType::kRrsig);
  ASSERT_NE(rrsig_set, nullptr);
  bool found = false;
  for (const auto& rdata : rrsig_set->rdatas) {
    const auto sig = dns::RrsigRdata::decode(
        std::span<const std::uint8_t>(rdata.data(), rdata.size()));
    if (sig && sig->covered() == RrType::kDnskey) {
      EXPECT_EQ(sig->key_tag, result.ksk.key_tag());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Signer, ExpiredZoneHasPastExpiration) {
  Zone zone = example_zone();
  SignerConfig config;
  config.expiration = kSimNow - 86400;
  sign_zone(zone, config);

  const auto* rrsig_set = zone.find(zone.apex(), RrType::kRrsig);
  ASSERT_NE(rrsig_set, nullptr);
  for (const auto& rdata : rrsig_set->rdatas) {
    const auto sig = dns::RrsigRdata::decode(
        std::span<const std::uint8_t>(rdata.data(), rdata.size()));
    ASSERT_TRUE(sig);
    EXPECT_LT(sig->expiration, kSimNow);
  }
}

TEST(Signer, Nsec3RrsigExpirationOverrideOnlyHitsNsec3) {
  // The it-2501-expired construction: NSEC3 signatures expired, the rest valid.
  Zone zone = example_zone();
  SignerConfig config;
  config.nsec3.iterations = 2501;
  config.nsec3_rrsig_expiration = kSimNow - 3600;
  sign_zone(zone, config);

  for (const auto& entry : zone.nsec3_entries()) {
    ASSERT_FALSE(entry.rrsigs.empty());
    const auto sig = entry.rrsigs.front().as<dns::RrsigRdata>();
    ASSERT_TRUE(sig);
    EXPECT_LT(sig->expiration, kSimNow);
  }
  const auto* apex_sigs = zone.find(zone.apex(), RrType::kRrsig);
  ASSERT_NE(apex_sigs, nullptr);
  for (const auto& rdata : apex_sigs->rdatas) {
    const auto sig = dns::RrsigRdata::decode(
        std::span<const std::uint8_t>(rdata.data(), rdata.size()));
    ASSERT_TRUE(sig);
    EXPECT_GT(sig->expiration, kSimNow);
  }
}

TEST(Signer, NsecModeBuildsNsecChain) {
  Zone zone = example_zone();
  SignerConfig config;
  config.denial = DenialMode::kNsec;
  sign_zone(zone, config);

  EXPECT_TRUE(zone.nsec3_entries().empty());
  EXPECT_FALSE(zone.nsec3param());
  const auto* apex_nsec = zone.find(zone.apex(), RrType::kNsec);
  ASSERT_NE(apex_nsec, nullptr);
  const auto nsec = dns::NsecRdata::decode(std::span<const std::uint8_t>(
      apex_nsec->rdatas.front().data(), apex_nsec->rdatas.front().size()));
  ASSERT_TRUE(nsec);
  EXPECT_TRUE(nsec->types.contains(RrType::kSoa));
  EXPECT_TRUE(nsec->types.contains(RrType::kNsec));
  // ENTs own no NSEC record.
  EXPECT_EQ(zone.find(Name::must_parse("deep.example.com"), RrType::kNsec),
            nullptr);
}

TEST(Signer, UnsignedZoneStaysUnsigned) {
  Zone zone = example_zone();
  SignerConfig config;
  config.denial = DenialMode::kUnsigned;
  sign_zone(zone, config);
  EXPECT_EQ(zone.find(zone.apex(), RrType::kDnskey), nullptr);
  EXPECT_EQ(zone.find(zone.apex(), RrType::kRrsig), nullptr);
  EXPECT_TRUE(zone.nsec3_entries().empty());
}

TEST(Signer, DeterministicAcrossRuns) {
  Zone zone1 = example_zone();
  Zone zone2 = example_zone();
  SignerConfig config;
  config.nsec3.iterations = 1;
  config.nsec3.salt = {0x42};
  sign_zone(zone1, config);
  sign_zone(zone2, config);
  EXPECT_EQ(zone1.to_text(), zone2.to_text());
  ASSERT_EQ(zone1.nsec3_entries().size(), zone2.nsec3_entries().size());
  for (std::size_t i = 0; i < zone1.nsec3_entries().size(); ++i)
    EXPECT_EQ(zone1.nsec3_entries()[i].hash, zone2.nsec3_entries()[i].hash);
}

/// Pins the NSEC3 digest memo on or off for one test, starting and leaving
/// the calling thread's memo empty.
class ScopedDigestMemo {
 public:
  explicit ScopedDigestMemo(bool on)
      : previous_(crypto::Nsec3DigestMemo::enabled()) {
    crypto::Nsec3DigestMemo::set_enabled(on);
    crypto::Nsec3DigestMemo::instance().clear();
  }
  ~ScopedDigestMemo() {
    crypto::Nsec3DigestMemo::instance().clear();
    crypto::Nsec3DigestMemo::set_enabled(previous_);
  }

 private:
  bool previous_;
};

SignerConfig memo_config() {
  SignerConfig config;
  config.nsec3.iterations = 5;
  config.nsec3.salt = {0xab, 0xcd};
  return config;
}

struct SignCost {
  std::uint64_t sha1 = 0;
  std::uint64_t sha1_physical = 0;
  std::uint64_t sha2 = 0;
  std::uint64_t nsec3 = 0;
};

/// Signs a fresh example_zone() and returns the CostMeter deltas, and the
/// signed zone's full text through `text`.
SignCost sign_and_measure(std::string* text = nullptr) {
  using crypto::CostMeter;
  const std::uint64_t sha1 = CostMeter::sha1_blocks();
  const std::uint64_t physical = CostMeter::sha1_physical_blocks();
  const std::uint64_t sha2 = CostMeter::sha2_blocks();
  const std::uint64_t nsec3 = CostMeter::nsec3_hashes();
  Zone zone = example_zone();
  sign_zone(zone, memo_config());
  if (text != nullptr) *text = zone.to_text();
  return SignCost{CostMeter::sha1_blocks() - sha1,
                  CostMeter::sha1_physical_blocks() - physical,
                  CostMeter::sha2_blocks() - sha2,
                  CostMeter::nsec3_hashes() - nsec3};
}

TEST(ChainMemo, CapacityZeroDisablesTheMemo) {
  // ZH_CHAIN_MEMO=0 switches the digest memo off: nothing is stored, every
  // block is executed on every sign, and a re-sign gives the same bytes
  // and the same logical counts.
  ScopedDigestMemo memo(false);
  std::string first_text;
  const SignCost first = sign_and_measure(&first_text);
  std::string second_text;
  const SignCost second = sign_and_measure(&second_text);

  EXPECT_EQ(crypto::Nsec3DigestMemo::instance().size(), 0u);
  EXPECT_GT(first.sha1, 0u);
  EXPECT_EQ(first.sha1_physical, first.sha1);
  EXPECT_EQ(second.sha1_physical, second.sha1);
  EXPECT_EQ(second.sha1, first.sha1);
  EXPECT_EQ(second.sha2, first.sha2);
  EXPECT_EQ(second.nsec3, first.nsec3);
  EXPECT_EQ(second_text, first_text);
}

TEST(ChainMemo, LogicalCostsMatchBetweenMemoOnAndOff) {
  // The digest memo is a throughput knob only: the signed zone and the
  // logical sha1/sha2/nsec3 counts are the same with it on or off. On and
  // warm, a re-sign executes no block.
  std::string off_text;
  SignCost off;
  {
    ScopedDigestMemo memo(false);
    sign_and_measure();
    off = sign_and_measure(&off_text);
  }
  std::string warm_text;
  SignCost warm;
  {
    ScopedDigestMemo memo(true);
    sign_and_measure();
    warm = sign_and_measure(&warm_text);
  }
  EXPECT_GT(off.sha1, 0u);
  EXPECT_EQ(off.sha1_physical, off.sha1);
  EXPECT_EQ(warm_text, off_text);
  EXPECT_EQ(warm.sha1, off.sha1);
  EXPECT_EQ(warm.sha2, off.sha2);
  EXPECT_EQ(warm.nsec3, off.nsec3);
  EXPECT_EQ(warm.sha1_physical, 0u);
}

TEST(ChainMemo, SignerHashesThroughTheDigestMemo) {
  // A cold sign executes each chain name's hash once and leaves the digest
  // in the thread's memo, so the authoritative proof writer's hash of a
  // chain name on the same thread executes no block.
  ScopedDigestMemo memo(true);
  const SignCost cold = sign_and_measure();
  EXPECT_GT(cold.sha1_physical, 0u);
  EXPECT_EQ(cold.sha1_physical, cold.sha1);

  const SignerConfig config = memo_config();
  const std::uint64_t sha1 = crypto::CostMeter::sha1_blocks();
  const std::uint64_t physical = crypto::CostMeter::sha1_physical_blocks();
  (void)dns::nsec3_hash_name(Name::must_parse("www.example.com"),
                             config.nsec3.salt, config.nsec3.iterations);
  EXPECT_GT(crypto::CostMeter::sha1_blocks(), sha1);
  EXPECT_EQ(crypto::CostMeter::sha1_physical_blocks(), physical);
}

TEST(ChainMemo, ClearAlsoEmptiesTheDigestMemo) {
  // perfbench empties the thread's NSEC3 memo through the zone-side name
  // before every timed set-up.
  ScopedDigestMemo memo(true);
  (void)dns::nsec3_hash_name(Name::must_parse("www.example.com"), {}, 10);
  ASSERT_GT(crypto::Nsec3DigestMemo::instance().size(), 0u);

  Nsec3ChainMemo::instance().clear();
  EXPECT_EQ(crypto::Nsec3DigestMemo::instance().size(), 0u);
}

}  // namespace
}  // namespace zh::zone
