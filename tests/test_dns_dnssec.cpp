// Unit tests for DNSSEC helpers: signed-data construction, DS matching,
// NSEC3 owner names and the hash-circle covering test.
#include <gtest/gtest.h>

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
  const auto data1 = build_signed_data(presig, set);
  set.rdatas = {b, a};
  const auto data2 = build_signed_data(presig, set);
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
  EXPECT_EQ(build_signed_data(presig, upper), build_signed_data(presig, lower));
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
  EXPECT_EQ(build_signed_data(presig, set), build_signed_data(presig, fresh));
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
  EXPECT_EQ(build_signed_data(presig, set), build_signed_data(presig, single));
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
