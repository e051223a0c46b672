// Unit tests for typed RDATA encode/decode and the type bitmap.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "dns/rdata.hpp"
#include "dns/rr.hpp"
#include "dns/type_bitmap.hpp"

namespace zh::dns {
namespace {

template <typename T>
std::optional<T> round_trip(const T& value) {
  const RdataBytes wire = value.encode();
  return T::decode(std::span<const std::uint8_t>(wire.data(), wire.size()));
}

TEST(TypeBitmap, EncodeSmallSet) {
  TypeBitmap bitmap({RrType::kA, RrType::kNs, RrType::kSoa, RrType::kRrsig});
  const auto wire = bitmap.encode();
  const auto decoded = TypeBitmap::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, bitmap);
  EXPECT_TRUE(decoded->contains(RrType::kRrsig));
  EXPECT_FALSE(decoded->contains(RrType::kTxt));
}

TEST(TypeBitmap, EmptyBitmapEncodesToNothing) {
  TypeBitmap bitmap;
  EXPECT_TRUE(bitmap.encode().empty());
  const auto decoded = TypeBitmap::decode({});
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->empty());
}

TEST(TypeBitmap, MultipleWindows) {
  TypeBitmap bitmap;
  bitmap.insert(RrType::kA);                          // window 0
  bitmap.insert(static_cast<RrType>(256));            // window 1
  bitmap.insert(static_cast<RrType>(770));            // window 3
  const auto wire = bitmap.encode();
  const auto decoded = TypeBitmap::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, bitmap);
}

TEST(TypeBitmap, DecodeRejectsOutOfOrderWindows) {
  // Window 1 then window 0.
  const std::vector<std::uint8_t> wire = {1, 1, 0x80, 0, 1, 0x40};
  EXPECT_FALSE(TypeBitmap::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(TypeBitmap, DecodeRejectsZeroLengthWindow) {
  const std::vector<std::uint8_t> wire = {0, 0};
  EXPECT_FALSE(TypeBitmap::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(TypeBitmap, DecodeRejectsTruncatedWindow) {
  const std::vector<std::uint8_t> wire = {0, 4, 0x40};
  EXPECT_FALSE(TypeBitmap::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(TypeBitmap, ToStringUsesMnemonics) {
  TypeBitmap bitmap({RrType::kA, RrType::kNsec3});
  EXPECT_EQ(bitmap.to_string(), "A NSEC3");
}

TEST(Rdata, ARoundTrip) {
  ARdata a;
  a.address = {192, 0, 2, 1};
  const auto back = round_trip(a);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->address, a.address);
  EXPECT_EQ(back->to_string(), "192.0.2.1");
}

TEST(Rdata, ADecodeRejectsWrongLength) {
  const std::vector<std::uint8_t> wire = {1, 2, 3};
  EXPECT_FALSE(
      ARdata::decode(std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Rdata, AaaaRoundTrip) {
  AaaaRdata a;
  a.address = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  const auto back = round_trip(a);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->address, a.address);
  EXPECT_EQ(back->to_string(), "2001:db8:0:0:0:0:0:1");
}

TEST(Rdata, SoaRoundTrip) {
  SoaRdata soa;
  soa.mname = Name::must_parse("ns1.example.com");
  soa.rname = Name::must_parse("hostmaster.example.com");
  soa.serial = 2024031501;
  const auto back = round_trip(soa);
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->mname.equals(soa.mname));
  EXPECT_TRUE(back->rname.equals(soa.rname));
  EXPECT_EQ(back->serial, soa.serial);
  EXPECT_EQ(back->minimum, soa.minimum);
}

TEST(Rdata, SoaDecodeRejectsTruncation) {
  SoaRdata soa;
  soa.mname = Name::must_parse("ns1.example.com");
  soa.rname = Name::must_parse("hostmaster.example.com");
  auto wire = soa.encode();
  wire.pop_back();
  EXPECT_FALSE(SoaRdata::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Rdata, TxtRoundTripMultipleStrings) {
  TxtRdata txt;
  txt.strings = {"hello", "", "world"};
  const auto back = round_trip(txt);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->strings, txt.strings);
}

TEST(Rdata, MxRoundTrip) {
  MxRdata mx;
  mx.preference = 10;
  mx.exchange = Name::must_parse("mail.example.com");
  const auto back = round_trip(mx);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->preference, 10);
  EXPECT_TRUE(back->exchange.equals(mx.exchange));
}

TEST(Rdata, DnskeyRoundTripAndFlags) {
  DnskeyRdata key;
  key.flags = DnskeyRdata::kFlagZoneKey | DnskeyRdata::kFlagSep;
  key.algorithm = 253;
  key.public_key.assign(32, 0x42);
  const auto back = round_trip(key);
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->is_zone_key());
  EXPECT_TRUE(back->is_sep());
  EXPECT_EQ(back->public_key, key.public_key);
  EXPECT_EQ(back->key_tag(), key.key_tag());
}

TEST(Rdata, DnskeyKeyTagIsStable) {
  DnskeyRdata key;
  key.flags = DnskeyRdata::kFlagZoneKey;
  key.algorithm = 253;
  key.public_key.assign(32, 0x01);
  const std::uint16_t tag = key.key_tag();
  EXPECT_EQ(key.key_tag(), tag);
  key.public_key[0] = 0x02;
  EXPECT_NE(key.key_tag(), tag);
}

TEST(Rdata, DnskeyKeyTagIsTheAppendixBChecksumOfTheWire) {
  // Random keys of odd and even length, up to 4 KiB, where the running sum
  // carries well past 16 bits.
  std::mt19937 rng(0x4034b);
  for (int round = 0; round < 400; ++round) {
    DnskeyRdata key;
    key.flags = static_cast<std::uint16_t>(rng());
    key.protocol = static_cast<std::uint8_t>(1 + rng() % 255);
    key.algorithm = static_cast<std::uint8_t>(rng());
    const std::size_t half = round < 200 ? rng() % 40 : rng() % 2048;
    key.public_key.resize(2 * half + static_cast<std::size_t>(round % 2));
    for (auto& b : key.public_key) b = static_cast<std::uint8_t>(rng());

    const RdataBytes wire = key.encode();
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < wire.size(); ++i)
      acc += (i & 1) ? wire[i] : (std::uint32_t{wire[i]} << 8);
    acc += (acc >> 16) & 0xffff;
    EXPECT_EQ(key.key_tag(), static_cast<std::uint16_t>(acc & 0xffff))
        << "round " << round << " key length " << key.public_key.size();
  }
}

TEST(Rdata, RrsigRoundTrip) {
  RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(RrType::kA);
  sig.algorithm = 253;
  sig.labels = 2;
  sig.original_ttl = 3600;
  sig.expiration = 1800000000;
  sig.inception = 1700000000;
  sig.key_tag = 12345;
  sig.signer = Name::must_parse("example.com");
  sig.signature.assign(32, 0x5a);
  const auto back = round_trip(sig);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->covered(), RrType::kA);
  EXPECT_EQ(back->labels, 2);
  EXPECT_EQ(back->expiration, sig.expiration);
  EXPECT_TRUE(back->signer.equals(sig.signer));
  EXPECT_EQ(back->signature, sig.signature);
}

TEST(Rdata, RrsigPresignatureOmitsSignature) {
  RrsigRdata sig;
  sig.signer = Name::must_parse("example.com");
  sig.signature.assign(32, 0x5a);
  RdataBytes wire;
  sig.append_presignature(wire);
  wire.insert(wire.end(), sig.signature.begin(), sig.signature.end());
  EXPECT_EQ(wire, sig.encode());
}

TEST(Rdata, DsRoundTrip) {
  DsRdata ds;
  ds.key_tag = 4711;
  ds.algorithm = 253;
  ds.digest_type = DsRdata::kDigestSha256;
  ds.digest.assign(32, 0x99);
  const auto back = round_trip(ds);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->key_tag, 4711);
  EXPECT_EQ(back->digest, ds.digest);
}

TEST(Rdata, DsDecodeRejectsEmptyDigest) {
  const std::vector<std::uint8_t> wire = {0x12, 0x34, 253, 2};
  EXPECT_FALSE(DsRdata::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Rdata, NsecRoundTrip) {
  NsecRdata nsec;
  nsec.next_domain = Name::must_parse("b.example.com");
  nsec.types = TypeBitmap({RrType::kA, RrType::kRrsig, RrType::kNsec});
  const auto back = round_trip(nsec);
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->next_domain.equals(nsec.next_domain));
  EXPECT_EQ(back->types, nsec.types);
}

TEST(Rdata, Nsec3RoundTripWithSaltAndOptOut) {
  Nsec3Rdata nsec3;
  nsec3.hash_algorithm = 1;
  nsec3.flags = Nsec3Rdata::kFlagOptOut;
  nsec3.iterations = 100;  // the Identity Digital pre-2024 setting
  nsec3.salt = {0xaa, 0xbb, 0xcc, 0xdd};
  nsec3.next_hash.assign(20, 0x77);
  nsec3.types = TypeBitmap({RrType::kNs, RrType::kDs, RrType::kRrsig});
  const auto back = round_trip(nsec3);
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->opt_out());
  EXPECT_EQ(back->iterations, 100);
  EXPECT_EQ(back->salt, nsec3.salt);
  EXPECT_EQ(back->next_hash, nsec3.next_hash);
  EXPECT_EQ(back->types, nsec3.types);
}

TEST(Rdata, Nsec3ZeroSaltRoundTrip) {
  Nsec3Rdata nsec3;
  nsec3.next_hash.assign(20, 0x01);
  const auto back = round_trip(nsec3);
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->salt.empty());
  EXPECT_EQ(back->iterations, 0);
  EXPECT_FALSE(back->opt_out());
}

TEST(Rdata, Nsec3DecodeRejectsTruncatedSalt) {
  const std::vector<std::uint8_t> wire = {1, 0, 0, 0, 8, 0xaa};
  EXPECT_FALSE(Nsec3Rdata::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Rdata, Nsec3ParamRoundTrip) {
  Nsec3ParamRdata param;
  param.iterations = 1;
  param.salt = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  const auto back = round_trip(param);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->iterations, 1);
  EXPECT_EQ(back->salt.size(), 8u);  // the Google Domains 1/8 setting
}

TEST(Rdata, Nsec3ParamRejectsTrailingBytes) {
  Nsec3ParamRdata param;
  auto wire = param.encode();
  wire.push_back(0);
  EXPECT_FALSE(Nsec3ParamRdata::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(RrSet, GroupCollectsMatchingRecords) {
  const Name owner = Name::must_parse("example.com");
  std::vector<ResourceRecord> records;
  records.push_back(make_a(owner, 300, 192, 0, 2, 1));
  records.push_back(make_a(owner, 600, 192, 0, 2, 2));
  records.push_back(make_ns(owner, 300, Name::must_parse("ns1.example.com")));

  const auto sets = RrSet::group(records);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].type, RrType::kA);
  EXPECT_EQ(sets[0].size(), 2u);
  EXPECT_EQ(sets[0].ttl, 300u);  // min TTL wins
  EXPECT_EQ(sets[1].type, RrType::kNs);
}

TEST(RrSet, ToRecordsExpands) {
  RrSet set;
  set.name = Name::must_parse("example.com");
  set.type = RrType::kA;
  set.ttl = 60;
  set.rdatas = {ARdata{{1, 2, 3, 4}}.encode(), ARdata{{5, 6, 7, 8}}.encode()};
  const auto records = set.to_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].ttl, 60u);
  EXPECT_EQ(records[1].as<ARdata>()->to_string(), "5.6.7.8");
}

TEST(ResourceRecord, ToStringNsec3Param) {
  Nsec3ParamRdata param;
  param.iterations = 5;
  param.salt = {0xab, 0xcd};
  const auto rr = ResourceRecord::make(Name::must_parse("example.com"),
                                       RrType::kNsec3Param, 0, param);
  EXPECT_EQ(rr.to_string(), "example.com. 0 IN NSEC3PARAM 1 0 5 abcd");
}

// Every encoder sizes its vector exactly: stored rdata carries no growth
// slack (zones hold every record's bytes for the life of the world).
TEST(Rdata, EveryEncoderReturnsAnExactSizeVector) {
  std::mt19937_64 rng(26);
  const auto bytes = [&](std::size_t max) {
    std::vector<std::uint8_t> out(rng() % (max + 1));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng());
    return out;
  };
  const auto name = [&] {
    std::string text = "n" + std::to_string(rng() % 100000);
    for (std::uint64_t i = rng() % 5; i > 0; --i)
      text += "." + std::string(1 + rng() % 40, 'a');
    return Name::must_parse(text);
  };
  const auto types = [&] {
    TypeBitmap bitmap;
    for (std::uint64_t i = rng() % 8; i > 0; --i)
      bitmap.insert(static_cast<RrType>(rng() % 300));
    return bitmap;
  };
  const auto exact = [](const RdataBytes& encoded, const char* type) {
    EXPECT_EQ(encoded.capacity(), encoded.size()) << type;
  };
  for (int i = 0; i < 200; ++i) {
    exact(ARdata{}.encode(), "A");
    exact(AaaaRdata{}.encode(), "AAAA");
    exact(NsRdata{name()}.encode(), "NS");
    exact(CnameRdata{name()}.encode(), "CNAME");
    exact(MxRdata{static_cast<std::uint16_t>(rng()), name()}.encode(), "MX");
    TxtRdata txt;
    for (std::uint64_t s = rng() % 4; s > 0; --s)
      txt.strings.push_back(std::string(rng() % 300, 't'));
    exact(txt.encode(), "TXT");
    SoaRdata soa;
    soa.mname = name();
    soa.rname = name();
    exact(soa.encode(), "SOA");
    DnskeyRdata key;
    key.public_key = bytes(300);
    exact(key.encode(), "DNSKEY");
    RrsigRdata sig;
    sig.signer = name();
    sig.signature = bytes(300);
    exact(sig.encode(), "RRSIG");
    DsRdata ds;
    ds.digest = bytes(64);
    exact(ds.encode(), "DS");
    exact(NsecRdata{name(), types()}.encode(), "NSEC");
    Nsec3Rdata nsec3;
    nsec3.salt = bytes(40);
    nsec3.next_hash = bytes(20);
    nsec3.types = types();
    exact(nsec3.encode(), "NSEC3");
    Nsec3ParamRdata param;
    param.salt = bytes(40);
    exact(param.encode(), "NSEC3PARAM");
  }
}

}  // namespace
}  // namespace zh::dns
