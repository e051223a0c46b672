// Integration tests for the validating recursive resolver against the
// simulated Internet and the paper's probe infrastructure: chain-of-trust
// validation, NSEC3 proof checking, RFC 9276 Items 6-12 behaviour, EDE,
// forwarding, caching and the CVE-2023-50868 cost signal.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "crypto/signing.hpp"
#include "dns/dnssec.hpp"
#include "testbed/internet.hpp"

namespace zh::resolver {
namespace {

using dns::EdeCode;
using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RrType;
using simnet::IpAddress;

class ResolverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    internet_ = new testbed::Internet();
    specs_ = testbed::add_probe_infrastructure(*internet_);
    internet_->build();
  }
  static void TearDownTestSuite() {
    delete internet_;
    internet_ = nullptr;
  }

  std::unique_ptr<RecursiveResolver> resolver(const ResolverProfile& profile,
                                              std::uint8_t index = 1) {
    return internet_->make_resolver(profile,
                                    IpAddress::v4(203, 0, 113, index));
  }

  /// A unique nonexistent name under the probe zone (NXDOMAIN-eliciting).
  Name nx_name(const std::string& label, const std::string& token) {
    return Name::must_parse(token + ".nx." + label +
                            ".rfc9276-in-the-wild.com");
  }
  /// A wildcard-matched name under the probe zone (NOERROR-eliciting).
  Name wc_name(const std::string& label, const std::string& token) {
    return Name::must_parse(token + ".wc." + label +
                            ".rfc9276-in-the-wild.com");
  }

  static testbed::Internet* internet_;
  static std::vector<testbed::ProbeZone> specs_;
};

testbed::Internet* ResolverTest::internet_ = nullptr;
std::vector<testbed::ProbeZone> ResolverTest::specs_;

TEST_F(ResolverTest, ProbeSetMatchesPaper) {
  // 49 subdomains + it-2501-expired (§4.2 / DESIGN.md §4).
  EXPECT_EQ(specs_.size(), 50u);
}

TEST_F(ResolverTest, ValidZoneWildcardGetsAd) {
  auto r = resolver(ResolverProfile::bind9_2021());
  const Message resp = r->resolve(wc_name("valid", "probe1"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.header.ad);
  EXPECT_EQ(resp.answers_with(RrType::kA).size(), 1u);
}

TEST_F(ResolverTest, ValidZoneNxdomainGetsAd) {
  auto r = resolver(ResolverProfile::bind9_2021());
  const Message resp = r->resolve(nx_name("valid", "probe2"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(resp.header.ad);
}

TEST_F(ResolverTest, ExpiredZoneServfails) {
  auto r = resolver(ResolverProfile::bind9_2021());
  const Message resp = r->resolve(wc_name("expired", "probe3"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail);
}

TEST_F(ResolverTest, IterationsWithinLimitStaySecure) {
  auto r = resolver(ResolverProfile::bind9_2021());  // insecure above 150
  for (const std::string label : {"it-1", "it-25", "it-150"}) {
    const Message resp = r->resolve(nx_name(label, "probe4"), RrType::kA);
    EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain) << label;
    EXPECT_TRUE(resp.header.ad) << label;
  }
}

TEST_F(ResolverTest, IterationsAboveLimitGoInsecure) {
  auto r = resolver(ResolverProfile::bind9_2021());
  for (const std::string label : {"it-151", "it-200", "it-500"}) {
    const Message resp = r->resolve(nx_name(label, "probe5"), RrType::kA);
    EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain) << label;
    EXPECT_FALSE(resp.header.ad) << label;
    // 2021-era software returned bare insecure responses without EDE.
    ASSERT_TRUE(resp.edns) << label;
    EXPECT_FALSE(resp.edns->ede()) << label;
  }
}

TEST_F(ResolverTest, CveEraSoftwareEmitsEde27OnInsecure) {
  auto r = resolver(ResolverProfile::knot_2023());  // insecure above 50
  const Message resp = r->resolve(nx_name("it-75", "probe5b"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(resp.header.ad);
  ASSERT_TRUE(resp.edns);
  const auto ede = resp.edns->ede();
  ASSERT_TRUE(ede);
  EXPECT_EQ(ede->info_code, EdeCode::kUnsupportedNsec3Iterations);
}

TEST_F(ResolverTest, CvePatchedResolverLowersLimitTo50) {
  auto r = resolver(ResolverProfile::bind9_2023());
  EXPECT_TRUE(r->resolve(nx_name("it-50", "p"), RrType::kA).header.ad);
  EXPECT_FALSE(r->resolve(nx_name("it-51", "p"), RrType::kA).header.ad);
}

TEST_F(ResolverTest, GoogleBoundaryAt100WithEde5) {
  auto r = resolver(ResolverProfile::google_public_dns());
  const Message at_limit = r->resolve(nx_name("it-100", "g1"), RrType::kA);
  EXPECT_TRUE(at_limit.header.ad);
  const Message above = r->resolve(nx_name("it-101", "g2"), RrType::kA);
  EXPECT_EQ(above.header.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(above.header.ad);
  ASSERT_TRUE(above.edns);
  const auto ede = above.edns->ede();
  ASSERT_TRUE(ede);
  EXPECT_EQ(ede->info_code, EdeCode::kDnssecIndeterminate);
}

TEST_F(ResolverTest, CloudflareServfailsAbove150WithEde27) {
  auto r = resolver(ResolverProfile::cloudflare());
  EXPECT_EQ(r->resolve(nx_name("it-150", "c1"), RrType::kA).header.rcode,
            Rcode::kNxDomain);
  const Message resp = r->resolve(nx_name("it-151", "c2"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail);
  ASSERT_TRUE(resp.edns);
  const auto ede = resp.edns->ede();
  ASSERT_TRUE(ede);
  EXPECT_EQ(ede->info_code, EdeCode::kUnsupportedNsec3Iterations);
}

TEST_F(ResolverTest, OpenDnsServfailsWithEde12) {
  auto r = resolver(ResolverProfile::opendns());
  const Message resp = r->resolve(nx_name("it-175", "o1"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail);
  ASSERT_TRUE(resp.edns);
  const auto ede = resp.edns->ede();
  ASSERT_TRUE(ede);
  EXPECT_EQ(ede->info_code, EdeCode::kNsecMissing);
}

TEST_F(ResolverTest, Quad9InsecureWithoutEde) {
  auto r = resolver(ResolverProfile::quad9());
  const Message resp = r->resolve(nx_name("it-200", "q1"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(resp.header.ad);
  ASSERT_TRUE(resp.edns);
  EXPECT_FALSE(resp.edns->ede());
}

TEST_F(ResolverTest, TechnitiumServfailsAt101WithExtraText) {
  auto r = resolver(ResolverProfile::technitium());
  EXPECT_EQ(r->resolve(nx_name("it-100", "t1"), RrType::kA).header.rcode,
            Rcode::kNxDomain);
  const Message resp = r->resolve(nx_name("it-101", "t2"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail);
  const auto ede = resp.edns->ede();
  ASSERT_TRUE(ede);
  EXPECT_EQ(ede->info_code, EdeCode::kUnsupportedNsec3Iterations);
  EXPECT_FALSE(ede->extra_text.empty());
}

TEST_F(ResolverTest, StrictZeroServfailsFromOneIteration) {
  auto r = resolver(ResolverProfile::strict_zero());
  EXPECT_EQ(r->resolve(nx_name("valid", "s1"), RrType::kA).header.rcode,
            Rcode::kNxDomain);
  EXPECT_EQ(r->resolve(nx_name("it-1", "s2"), RrType::kA).header.rcode,
            Rcode::kServFail);
}

TEST_F(ResolverTest, StrictZeroCopiesRaBit) {
  auto r = resolver(ResolverProfile::strict_zero());
  Message query = Message::make_query(7, nx_name("it-1", "s3"), RrType::kA);
  query.header.rd = true;
  query.header.ra = false;
  const Message resp = r->handle(query, IpAddress::v4(203, 0, 113, 99));
  EXPECT_FALSE(resp.header.ra) << "quirk: RA mirrors the query";

  auto normal = resolver(ResolverProfile::bind9_2021(), 41);
  const Message resp2 = normal->handle(query, IpAddress::v4(203, 0, 113, 99));
  EXPECT_TRUE(resp2.header.ra);
}

TEST_F(ResolverTest, PermissiveValidatorValidatesEvenIt500) {
  auto r = resolver(ResolverProfile::permissive());
  const Message resp = r->resolve(nx_name("it-500", "p1"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(resp.header.ad) << "no RFC 9276 limit below the 2500 ceiling";
}

TEST_F(ResolverTest, Item7CompliantServfailsOnExpiredNsec3) {
  // it-2501-expired: above every insecure limit, NSEC3 RRSIGs expired.
  auto r = resolver(ResolverProfile::bind9_2021());
  const Message resp =
      r->resolve(nx_name("it-2501-expired", "i7a"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail)
      << "Item 7: verify NSEC3 RRSIG before trusting the iteration count";
}

TEST_F(ResolverTest, Item7ViolatorReturnsInsecureNxdomain) {
  auto r = resolver(ResolverProfile::item7_violator());
  const Message resp =
      r->resolve(nx_name("it-2501-expired", "i7b"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain)
      << "the 0.2% non-compliant behaviour of §5.2";
  EXPECT_FALSE(resp.header.ad);
}

TEST_F(ResolverTest, Item12GapProfileHasWindow) {
  auto r = resolver(ResolverProfile::item12_gap());
  EXPECT_TRUE(r->config().profile.policy.has_item12_gap());
  // Below 100: secure. 101-150: insecure (downgrade window!). >150: SERVFAIL.
  EXPECT_TRUE(r->resolve(nx_name("it-100", "g12a"), RrType::kA).header.ad);
  const Message mid = r->resolve(nx_name("it-125", "g12b"), RrType::kA);
  EXPECT_EQ(mid.header.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(mid.header.ad);
  EXPECT_EQ(r->resolve(nx_name("it-175", "g12c"), RrType::kA).header.rcode,
            Rcode::kServFail);
}

TEST_F(ResolverTest, NonValidatingResolverNeverSetsAd) {
  auto r = resolver(ResolverProfile::non_validating());
  const Message nx = r->resolve(nx_name("it-500", "nv1"), RrType::kA);
  EXPECT_EQ(nx.header.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(nx.header.ad);
  const Message ok = r->resolve(wc_name("expired", "nv2"), RrType::kA);
  EXPECT_EQ(ok.header.rcode, Rcode::kNoError)
      << "no validation → expired signatures do not matter";
}

TEST_F(ResolverTest, ForwarderRelaysUpstreamVerdict) {
  auto upstream = resolver(ResolverProfile::cloudflare(), 50);
  RecursiveResolver::Config config;
  config.address = IpAddress::v4(203, 0, 113, 51);
  config.profile = ResolverProfile::non_validating();
  config.forward = true;
  config.forward_target = upstream->address();
  RecursiveResolver forwarder(internet_->network(), config,
                              internet_->root_servers());
  forwarder.attach();

  Message query =
      Message::make_query(11, nx_name("it-151", "f1"), RrType::kA);
  const Message resp = forwarder.handle(query, IpAddress::v4(9, 9, 9, 9));
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail)
      << "forwarders surface the upstream Cloudflare SERVFAIL";
}

TEST_F(ResolverTest, ForwarderCopiesAdWhenConfigured) {
  auto upstream = resolver(ResolverProfile::bind9_2021(), 52);
  RecursiveResolver::Config config;
  config.address = IpAddress::v4(203, 0, 113, 53);
  config.profile = ResolverProfile::bind9_2021();
  config.forward = true;
  config.forward_target = upstream->address();
  RecursiveResolver forwarder(internet_->network(), config,
                              internet_->root_servers());
  forwarder.attach();
  const Message resp = forwarder.resolve(nx_name("it-5", "f2"), RrType::kA);
  EXPECT_TRUE(resp.header.ad);
}

TEST_F(ResolverTest, AnswerCacheAvoidsUpstreamQueries) {
  auto r = resolver(ResolverProfile::bind9_2021(), 54);
  const Name name = wc_name("valid", "cache1");
  (void)r->resolve(name, RrType::kA);
  const auto upstream_before = r->stats().upstream_queries;
  (void)r->resolve(name, RrType::kA);
  EXPECT_EQ(r->stats().upstream_queries, upstream_before);
  EXPECT_GE(r->stats().cache_hits, 1u);
}

TEST_F(ResolverTest, ZoneContextCacheShortensSecondResolution) {
  auto r = resolver(ResolverProfile::bind9_2021(), 55);
  (void)r->resolve(nx_name("it-3", "z1"), RrType::kA);
  const auto first = r->stats().upstream_queries;
  (void)r->resolve(nx_name("it-3", "z2"), RrType::kA);
  const auto second = r->stats().upstream_queries - first;
  EXPECT_LT(second, first) << "root/TLD/zone contexts are reused";
}

TEST_F(ResolverTest, ValidationCostScalesWithIterations) {
  auto r = resolver(ResolverProfile::permissive(), 56);
  (void)r->resolve(nx_name("it-1", "cost1"), RrType::kA);
  const auto low = r->stats().last_query_sha1_blocks;
  (void)r->resolve(nx_name("it-500", "cost2"), RrType::kA);
  const auto high = r->stats().last_query_sha1_blocks;
  EXPECT_GT(high, low * 20)
      << "CVE-2023-50868: validation cost explodes with iteration count";
}

TEST_F(ResolverTest, LimitedResolverDoesNotPayHashCost) {
  auto r = resolver(ResolverProfile::cloudflare(), 57);
  (void)r->resolve(nx_name("it-500", "cost3"), RrType::kA);
  const auto servfail_cost = r->stats().last_query_sha1_blocks;
  auto p = resolver(ResolverProfile::permissive(), 58);
  (void)p->resolve(nx_name("it-500", "cost4"), RrType::kA);
  const auto full_cost = p->stats().last_query_sha1_blocks;
  EXPECT_LT(servfail_cost * 10, full_cost)
      << "Item 8 protects the resolver from the iteration cost";
}

TEST_F(ResolverTest, NoDoBitStripsDnssecRecords) {
  auto r = resolver(ResolverProfile::bind9_2021(), 59);
  const Message resp =
      r->resolve(nx_name("it-5", "nodo"), RrType::kA, /*dnssec_ok=*/false);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(resp.authorities_with(RrType::kNsec3).empty());
  EXPECT_FALSE(resp.header.ad);
}

TEST_F(ResolverTest, DnskeyQueryReturnsSecureAnswer) {
  auto r = resolver(ResolverProfile::bind9_2021(), 60);
  const Message resp = r->resolve(
      Name::must_parse("rfc9276-in-the-wild.com"), RrType::kDnskey);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_EQ(resp.answers_with(RrType::kDnskey).size(), 2u);
  EXPECT_TRUE(resp.header.ad);
}

TEST_F(ResolverTest, Nsec3ParamQueryReturnsZoneParameters) {
  auto r = resolver(ResolverProfile::bind9_2021(), 61);
  const Message resp = r->resolve(
      Name::must_parse("it-17.rfc9276-in-the-wild.com"), RrType::kNsec3Param);
  ASSERT_EQ(resp.answers_with(RrType::kNsec3Param).size(), 1u);
  const auto param = resp.answers_with(RrType::kNsec3Param).front()
                         .as<dns::Nsec3ParamRdata>();
  ASSERT_TRUE(param);
  EXPECT_EQ(param->iterations, 17);
  EXPECT_TRUE(param->salt.empty());
}

/// On-path rewrite of every NSEC3 RR below `zone`, re-signed with the
/// zone's own ZSK (the testbed derives it from the apex name), so the
/// signatures stay valid and only the rewritten field is wrong.
simnet::TamperHook rewrite_nsec3(Name zone,
                                 std::function<void(dns::Nsec3Rdata&)> edit) {
  return [zone = std::move(zone), edit = std::move(edit)](
             Message& response, const IpAddress& /*from*/,
             const IpAddress& /*to*/) {
    bool touched = false;
    for (auto& rr : response.authorities) {
      if (rr.type != RrType::kNsec3 || !rr.name.is_subdomain_of(zone))
        continue;
      auto rdata = rr.as<dns::Nsec3Rdata>();
      if (!rdata) continue;
      edit(*rdata);
      rr.rdata = rdata->encode();
      dns::RrSet set;
      set.name = rr.name;
      set.type = RrType::kNsec3;
      set.ttl = rr.ttl;
      set.rdatas = {rr.rdata};
      for (auto& sig_rr : response.authorities) {
        if (sig_rr.type != RrType::kRrsig || !sig_rr.name.equals(rr.name))
          continue;
        auto sig = sig_rr.as<dns::RrsigRdata>();
        if (!sig || sig->covered() != RrType::kNsec3) continue;
        const auto key =
            crypto::SimKey::derive(sig->signer.to_string() + "/zsk");
        std::vector<std::uint8_t> data;
        dns::build_signed_data(*sig, set, set.name, data);
        const auto signature =
            key.sign(std::span<const std::uint8_t>(data.data(), data.size()));
        sig->signature.assign(signature.begin(), signature.end());
        sig_rr.rdata = sig->encode();
      }
      touched = true;
    }
    return touched;
  };
}

TEST_F(ResolverTest, Nsec3WithUnknownHashAlgorithmProvesNothing) {
  // RFC 5155 §8.1: validators MUST ignore NSEC3 RRs with unknown hash
  // algorithms. A proof made only of them is a missing proof.
  auto r = resolver(ResolverProfile::bind9_2021(), 62);
  const std::uint64_t tampered_before =
      internet_->network().tampered_responses();
  internet_->network().set_tamper(
      rewrite_nsec3(Name::must_parse("rfc9276-in-the-wild.com"),
                    [](dns::Nsec3Rdata& nsec3) { nsec3.hash_algorithm = 2; }));
  const Message resp = r->resolve(nx_name("valid", "alg2"), RrType::kA);
  internet_->network().set_tamper(nullptr);

  EXPECT_GT(internet_->network().tampered_responses(), tampered_before);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail);
  EXPECT_FALSE(resp.header.ad);
}

TEST_F(ResolverTest, Nsec3WithUnknownFlagsProvesNothing) {
  // RFC 5155 §8.2: validators MUST ignore NSEC3 RRs whose Flags field is
  // neither 0 nor 1 (Opt-Out is the only defined flag).
  auto r = resolver(ResolverProfile::bind9_2021(), 63);
  const std::uint64_t tampered_before =
      internet_->network().tampered_responses();
  internet_->network().set_tamper(
      rewrite_nsec3(Name::must_parse("rfc9276-in-the-wild.com"),
                    [](dns::Nsec3Rdata& nsec3) { nsec3.flags = 0x02; }));
  const Message resp = r->resolve(nx_name("valid", "flags2"), RrType::kA);
  internet_->network().set_tamper(nullptr);

  EXPECT_GT(internet_->network().tampered_responses(), tampered_before);
  EXPECT_EQ(resp.header.rcode, Rcode::kServFail);
  EXPECT_FALSE(resp.header.ad);
}

TEST_F(ResolverTest, ReSignedUntouchedProofStillValidates) {
  // The rewrite hook itself is sound: an edit that changes nothing leaves a
  // proof the validator accepts, so the SERVFAILs above come from the field.
  auto r = resolver(ResolverProfile::bind9_2021(), 64);
  internet_->network().set_tamper(
      rewrite_nsec3(Name::must_parse("rfc9276-in-the-wild.com"),
                    [](dns::Nsec3Rdata&) {}));
  const Message resp = r->resolve(nx_name("valid", "resigned"), RrType::kA);
  internet_->network().set_tamper(nullptr);

  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(resp.header.ad);
}


TEST(ResolverCname, ChasesAcrossZonesAndValidates) {
  testbed::Internet internet;
  internet.add_tld("com", testbed::TldConfig{});
  internet.add_tld("net", testbed::TldConfig{});

  // alias.source.com CNAME -> target.dest.net (cross-zone, both signed).
  testbed::DomainConfig source;
  source.apex = Name::must_parse("source.com");
  dns::CnameRdata cname;
  cname.target = Name::must_parse("target.dest.net");
  source.extra_records.push_back(dns::ResourceRecord::make(
      Name::must_parse("alias.source.com"), RrType::kCname, 300, cname));
  internet.add_domain(source);

  testbed::DomainConfig dest;
  dest.apex = Name::must_parse("dest.net");
  dest.extra_records.push_back(
      dns::make_a(Name::must_parse("target.dest.net"), 300, 192, 0, 2, 33));
  internet.add_domain(dest);
  internet.build();

  auto r = internet.make_resolver(ResolverProfile::bind9_2021(),
                                  IpAddress::v4(203, 0, 113, 80));
  const Message resp =
      r->resolve(Name::must_parse("alias.source.com"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_EQ(resp.answers_with(RrType::kCname).size(), 1u);
  ASSERT_EQ(resp.answers_with(RrType::kA).size(), 1u);
  EXPECT_TRUE(resp.answers_with(RrType::kA).front().name.equals(
      Name::must_parse("target.dest.net")));
  EXPECT_TRUE(resp.header.ad) << "both links of the chain validated";
}

TEST(ResolverCname, DanglingCnameYieldsTargetNxdomain) {
  testbed::Internet internet;
  internet.add_tld("com", testbed::TldConfig{});
  testbed::DomainConfig zone_config;
  zone_config.apex = Name::must_parse("dangling.com");
  dns::CnameRdata cname;
  cname.target = Name::must_parse("void.dangling.com");
  zone_config.extra_records.push_back(dns::ResourceRecord::make(
      Name::must_parse("alias.dangling.com"), RrType::kCname, 300, cname));
  internet.add_domain(zone_config);
  internet.build();

  auto r = internet.make_resolver(ResolverProfile::bind9_2021(),
                                  IpAddress::v4(203, 0, 113, 81));
  const Message resp =
      r->resolve(Name::must_parse("alias.dangling.com"), RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(resp.answers_with(RrType::kCname).size(), 1u);
}

}  // namespace
}  // namespace zh::resolver
