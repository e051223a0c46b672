// Unit tests for DNSSEC helpers: signed-data construction, DS matching,
// NSEC3 owner names and the hash-circle covering test.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "crypto/signing.hpp"
#include "dns/dnssec.hpp"

namespace zh::dns {
namespace {

DnskeyRdata test_key(std::string_view seed, bool ksk = false) {
  const auto sim = crypto::SimKey::derive(seed);
  DnskeyRdata key;
  key.flags = DnskeyRdata::kFlagZoneKey;
  if (ksk) key.flags |= DnskeyRdata::kFlagSep;
  key.algorithm =
      static_cast<std::uint8_t>(crypto::DnssecAlgorithm::kSimHmacSha256);
  key.public_key.assign(sim.public_key().begin(), sim.public_key().end());
  return key;
}

/// The signed data of `set` under its own owner.
std::vector<std::uint8_t> signed_data(const RrsigRdata& presig,
                                      const RrSet& set) {
  std::vector<std::uint8_t> out;
  build_signed_data(presig, set, set.name, out);
  return out;
}

TEST(SignedData, ChangesWithRdataOrderButNotInputOrder) {
  RrSet set;
  set.name = Name::must_parse("example.com");
  set.type = RrType::kA;
  set.ttl = 300;
  const RdataBytes a = ARdata{{192, 0, 2, 1}}.encode();
  const RdataBytes b = ARdata{{192, 0, 2, 2}}.encode();

  RrsigRdata presig;
  presig.type_covered = static_cast<std::uint16_t>(RrType::kA);
  presig.original_ttl = 300;
  presig.signer = Name::must_parse("example.com");

  set.rdatas = {a, b};
  const auto data1 = signed_data(presig, set);
  set.rdatas = {b, a};
  const auto data2 = signed_data(presig, set);
  EXPECT_EQ(data1, data2) << "rdata must be canonically sorted before signing";
}

TEST(SignedData, OwnerNameLowercased) {
  RrSet upper;
  upper.name = Name::must_parse("WWW.EXAMPLE.COM");
  upper.type = RrType::kA;
  upper.rdatas = {ARdata{{1, 2, 3, 4}}.encode()};
  RrSet lower = upper;
  lower.name = Name::must_parse("www.example.com");

  RrsigRdata presig;
  presig.signer = Name::must_parse("example.com");
  EXPECT_EQ(signed_data(presig, upper), signed_data(presig, lower));
}

TEST(SignedData, UsesOriginalTtlNotCurrentTtl) {
  RrSet set;
  set.name = Name::must_parse("example.com");
  set.type = RrType::kA;
  set.ttl = 17;  // e.g. decremented by a cache
  set.rdatas = {ARdata{{1, 2, 3, 4}}.encode()};

  RrsigRdata presig;
  presig.original_ttl = 300;
  presig.signer = Name::must_parse("example.com");
  RrSet fresh = set;
  fresh.ttl = 300;
  EXPECT_EQ(signed_data(presig, set), signed_data(presig, fresh));
}

TEST(SignedData, DuplicateRdatasCollapse) {
  RrSet set;
  set.name = Name::must_parse("example.com");
  set.type = RrType::kA;
  const RdataBytes a = ARdata{{1, 2, 3, 4}}.encode();
  set.rdatas = {a, a};
  RrSet single = set;
  single.rdatas = {a};
  RrsigRdata presig;
  presig.signer = Name::must_parse("example.com");
  EXPECT_EQ(signed_data(presig, set), signed_data(presig, single));
}

/// The signed-data builder as it stood when it returned a fresh vector:
/// pre-signature fields with the signer as to_wire() spells it, then a copy
/// of the rdatas sorted and deduplicated, each under the lowercased owner.
/// The reference the reusing builder must match byte for byte.
std::vector<std::uint8_t> reference_signed_data(const RrsigRdata& presig,
                                                const RrSet& rrset) {
  std::vector<std::uint8_t> out;
  const auto u16 = [&](std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  };
  const auto u32 = [&](std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  };
  u16(presig.type_covered);
  out.push_back(presig.algorithm);
  out.push_back(presig.labels);
  u32(presig.original_ttl);
  u32(presig.expiration);
  u32(presig.inception);
  u16(presig.key_tag);
  const auto signer = presig.signer.to_wire();
  out.insert(out.end(), signer.begin(), signer.end());

  std::vector<RdataBytes> sorted = rrset.rdatas;
  std::sort(sorted.begin(), sorted.end(), canonical_rdata_less);
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const auto owner = rrset.name.to_canonical_wire();
  for (const auto& rdata : sorted) {
    out.insert(out.end(), owner.begin(), owner.end());
    u16(static_cast<std::uint16_t>(rrset.type));
    u16(static_cast<std::uint16_t>(rrset.klass));
    u32(presig.original_ttl);
    u16(static_cast<std::uint16_t>(rdata.size()));
    out.insert(out.end(), rdata.begin(), rdata.end());
  }
  return out;
}

TEST(SignedData, MatchesTheReferenceBuilderInAReusedBuffer) {
  std::mt19937 rng(0x4034);
  const auto rdata = [&](std::size_t max) {
    RdataBytes out(rng() % (max + 1));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng() % 4);
    return out;
  };
  RrsigRdata presig;
  presig.type_covered = static_cast<std::uint16_t>(RrType::kTxt);
  presig.algorithm = 253;
  presig.labels = 3;
  presig.original_ttl = 3600;
  presig.expiration = 1800000000;
  presig.inception = 1700000000;
  presig.key_tag = 4711;
  presig.signer = Name::must_parse("Example.COM");

  struct Case {
    const char* what;
    RrSet rrset;
    Name owner;  // the owner the RRSIG covers
  };
  std::vector<Case> cases;
  const auto make_set = [&](const char* owner, std::size_t count) {
    RrSet set;
    set.name = Name::must_parse(owner);
    set.type = RrType::kTxt;
    set.ttl = 17;  // a cache-decremented TTL the signed data must not see
    for (std::size_t i = 0; i < count; ++i) set.rdatas.push_back(rdata(6));
    return set;
  };
  cases.push_back({"unsorted", make_set("www.example.com", 9), {}});
  {
    RrSet set = make_set("www.example.com", 5);
    set.rdatas.push_back(set.rdatas[1]);
    set.rdatas.insert(set.rdatas.begin(), set.rdatas[3]);
    cases.push_back({"duplicates", set, {}});
  }
  cases.push_back({"uppercase owner", make_set("WWW.Example.COM", 4), {}});
  cases.push_back({"past the stack order", make_set("big.example.com", 40), {}});
  cases.push_back({"empty", make_set("none.example.com", 0), {}});
  for (auto& c : cases) c.owner = c.rrset.name;
  {
    RrSet expanded = make_set("a.b.example.com", 3);
    cases.push_back({"wildcard-expanded", expanded,
                     Name::must_parse("*.b.example.com")});
  }

  std::vector<std::uint8_t> reused(300, 0xee);  // stale bytes to replace
  for (const Case& c : cases) {
    RrSet as_signed = c.rrset;
    as_signed.name = c.owner;
    build_signed_data(presig, c.rrset, c.owner, reused);
    EXPECT_EQ(reused, reference_signed_data(presig, as_signed)) << c.what;
  }
}

TEST(Ds, MatchesOwnKey) {
  const auto key = test_key("example.com/ksk", /*ksk=*/true);
  const auto owner = Name::must_parse("example.com");
  const DsRdata ds = make_ds(owner, key);
  EXPECT_TRUE(ds_matches_key(ds, owner, key));
  EXPECT_EQ(ds.key_tag, key.key_tag());
  EXPECT_EQ(ds.digest.size(), 32u);
}

TEST(Ds, Sha1DigestType) {
  const auto key = test_key("example.com/ksk", true);
  const auto owner = Name::must_parse("example.com");
  const DsRdata ds = make_ds(owner, key, DsRdata::kDigestSha1);
  EXPECT_EQ(ds.digest.size(), 20u);
  EXPECT_TRUE(ds_matches_key(ds, owner, key));
}

TEST(Ds, RejectsDifferentKey) {
  const auto key = test_key("example.com/ksk", true);
  const auto other = test_key("evil.example/ksk", true);
  const auto owner = Name::must_parse("example.com");
  const DsRdata ds = make_ds(owner, key);
  EXPECT_FALSE(ds_matches_key(ds, owner, other));
}

TEST(Ds, RejectsDifferentOwner) {
  const auto key = test_key("example.com/ksk", true);
  const DsRdata ds = make_ds(Name::must_parse("example.com"), key);
  EXPECT_FALSE(ds_matches_key(ds, Name::must_parse("examp1e.com"), key));
}

TEST(Nsec3OwnerName, MatchesRfc5155Vector) {
  // RFC 5155 Appendix A: "example" with salt aabbccdd, 12 iterations.
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const Name owner = nsec3_owner_name(
      Name::must_parse("example"), Name::must_parse("example"),
      std::span<const std::uint8_t>(salt.data(), salt.size()), 12);
  EXPECT_EQ(owner.to_string(),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example.");
}

TEST(Nsec3OwnerName, CaseInsensitiveInput) {
  const auto zone = Name::must_parse("example.com");
  const auto a = nsec3_owner_name(Name::must_parse("WWW.example.COM"), zone,
                                  {}, 1);
  const auto b = nsec3_owner_name(Name::must_parse("www.example.com"), zone,
                                  {}, 1);
  EXPECT_TRUE(a.equals(b));
}

TEST(Nsec3OwnerName, HashExtractRoundTrip) {
  const auto zone = Name::must_parse("example.com");
  const auto name = Name::must_parse("api.example.com");
  const Name owner = nsec3_owner_name(name, zone, {}, 3);
  const auto hash = nsec3_owner_hash(owner, zone);
  ASSERT_TRUE(hash);
  const auto digest = nsec3_hash_name(name, {}, 3);
  EXPECT_EQ(*hash, std::vector<std::uint8_t>(digest.begin(), digest.end()));
}

TEST(Nsec3OwnerName, HashExtractRejectsForeignZone) {
  const auto zone = Name::must_parse("example.com");
  const Name owner =
      nsec3_owner_name(Name::must_parse("api.example.com"), zone, {}, 0);
  EXPECT_FALSE(nsec3_owner_hash(owner, Name::must_parse("example.org")));
  // Two levels below the zone is not an NSEC3 owner either.
  const auto deep = owner.prepended("x");
  ASSERT_TRUE(deep);
  EXPECT_FALSE(nsec3_owner_hash(*deep, zone));
}

TEST(RrsigLabels, CountsExcludeRootAndWildcard) {
  EXPECT_EQ(rrsig_label_count(Name::must_parse("www.example.com")), 3);
  EXPECT_EQ(rrsig_label_count(Name::must_parse("*.example.com")), 2);
  EXPECT_EQ(rrsig_label_count(Name::root()), 0);
}

TEST(Nsec3Covers, NormalInterval) {
  const std::vector<std::uint8_t> low(20, 0x10);
  const std::vector<std::uint8_t> high(20, 0x50);
  const std::vector<std::uint8_t> inside(20, 0x30);
  const std::vector<std::uint8_t> outside(20, 0x60);
  EXPECT_TRUE(nsec3_covers(low, high, inside));
  EXPECT_FALSE(nsec3_covers(low, high, outside));
  EXPECT_FALSE(nsec3_covers(low, high, low));
  EXPECT_FALSE(nsec3_covers(low, high, high));
}

TEST(Nsec3Covers, WrapAroundInterval) {
  const std::vector<std::uint8_t> low(20, 0x10);
  const std::vector<std::uint8_t> high(20, 0x50);
  const std::vector<std::uint8_t> above(20, 0x99);
  const std::vector<std::uint8_t> below(20, 0x05);
  // Last NSEC3 in the chain: owner=high wraps to next=low.
  EXPECT_TRUE(nsec3_covers(high, low, above));
  EXPECT_TRUE(nsec3_covers(high, low, below));
  const std::vector<std::uint8_t> between(20, 0x30);
  EXPECT_FALSE(nsec3_covers(high, low, between));
}

TEST(Nsec3Covers, SingleRecordChainCoversAllButSelf) {
  const std::vector<std::uint8_t> only(20, 0x42);
  const std::vector<std::uint8_t> other(20, 0x43);
  EXPECT_TRUE(nsec3_covers(only, only, other));
  EXPECT_FALSE(nsec3_covers(only, only, only));
}

}  // namespace
}  // namespace zh::dns
