// Unit tests for the zone model and the DNSSEC signer: empty non-terminals,
// closest enclosers, delegations, NSEC/NSEC3 chain construction, opt-out,
// signature validity, the expired-signature overrides, and the signer's
// hashing through the NSEC3 digest memo.
#include <gtest/gtest.h>

#include <set>
#include <string>

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
  const Zone zone = example_zone();
  const auto names = zone.names_in_order();
  ASSERT_GE(names.size(), 2u);
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_TRUE(Name::canonical_compare(names[i - 1], names[i]) < 0);
  EXPECT_TRUE(names.front().equals(zone.apex()));
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
