// Tests for misbehaving-infrastructure handling: RFC 5155 consistency
// violations the scanner must classify as excluded (as §4.1 does), and
// response spoofing the resolver must reject (RFC 5452 hygiene).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "scanner/domain_scanner.hpp"
#include "testbed/internet.hpp"

namespace zh {
namespace {

using dns::Name;
using dns::Rcode;
using dns::RrType;
using simnet::IpAddress;

/// Builds a world with one normal domain, then lets the test mutate the
/// zone before serving.
struct World {
  testbed::Internet internet;
  std::shared_ptr<zone::Zone> zone;
  std::unique_ptr<resolver::RecursiveResolver> resolver;

  explicit World(const char* apex) {
    internet.add_tld("com", testbed::TldConfig{});
    testbed::DomainConfig config;
    config.apex = Name::must_parse(apex);
    config.nsec3 = {.iterations = 4, .salt = {0x42}, .opt_out = false};
    internet.add_domain(config);
    internet.build();
    zone = std::const_pointer_cast<zone::Zone>(
        internet.zone(Name::must_parse(apex)));
    resolver = internet.make_resolver(
        resolver::ResolverProfile::cloudflare(), IpAddress::v4(1, 1, 1, 1));
  }
};

TEST(ScannerMisbehavior, MismatchedNsec3ParamExcluded) {
  World world("mismatch.com");
  // Corrupt the published NSEC3PARAM: claim different iterations than the
  // NSEC3 records actually use (an RFC 5155 §4 violation).
  auto* apex_node = world.zone->mutable_node(world.zone->apex());
  ASSERT_NE(apex_node, nullptr);
  const auto param_set = std::find_if(
      apex_node->rrsets.begin(), apex_node->rrsets.end(),
      [](const dns::RrSet& set) { return set.type == RrType::kNsec3Param; });
  ASSERT_NE(param_set, apex_node->rrsets.end());
  dns::Nsec3ParamRdata forged;
  forged.iterations = 99;
  forged.salt = {0x42};
  param_set->rdatas[0] = forged.encode();

  scanner::DomainScanner scanner(world.internet.network(),
                                 IpAddress::v4(203, 0, 113, 10),
                                 world.resolver->address());
  const auto result = scanner.scan(Name::must_parse("mismatch.com"));
  EXPECT_EQ(result.classification,
            scanner::DomainScanResult::Class::kExcluded);
  ASSERT_TRUE(result.nsec3);
  EXPECT_FALSE(result.nsec3->matches_nsec3param);
  EXPECT_TRUE(result.nsec3->records_consistent);
}

TEST(ScannerMisbehavior, MultipleNsec3ParamsExcluded) {
  World world("twoparam.com");
  dns::Nsec3ParamRdata extra;
  extra.iterations = 7;
  world.zone->add(dns::ResourceRecord::make(
      world.zone->apex(), RrType::kNsec3Param, 0, extra));

  scanner::DomainScanner scanner(world.internet.network(),
                                 IpAddress::v4(203, 0, 113, 11),
                                 world.resolver->address());
  const auto result = scanner.scan(Name::must_parse("twoparam.com"));
  EXPECT_EQ(result.nsec3param_count, 2u);
  EXPECT_EQ(result.classification,
            scanner::DomainScanResult::Class::kExcluded)
      << "§4.1: only domains with exactly one NSEC3PARAM are kept";
}

TEST(ScannerMisbehavior, InconsistentNsec3RecordsExcluded) {
  World world("inconsist.com");
  // Rewrite one chain entry's iterations so the NSEC3 RRset disagrees with
  // itself across records.
  auto entries = world.zone->nsec3_entries();
  ASSERT_GE(entries.size(), 2u);
  entries[0].rdata.iterations = 250;
  world.zone->set_nsec3_chain(entries,
                              *world.zone->nsec3_params_used());

  scanner::DomainScanner scanner(world.internet.network(),
                                 IpAddress::v4(203, 0, 113, 12),
                                 world.resolver->address());
  const auto result = scanner.scan(Name::must_parse("inconsist.com"));
  // Depending on which entries the negative proof touches, the scanner
  // either sees the inconsistency directly or a param mismatch; both are
  // excluded, never counted as NSEC3-enabled.
  if (result.nsec3 && !result.nsec3->records_consistent) {
    EXPECT_EQ(result.classification,
              scanner::DomainScanResult::Class::kExcluded);
  } else {
    EXPECT_NE(result.classification,
              scanner::DomainScanResult::Class::kNsec3Enabled);
  }
}

TEST(ResolverMisbehavior, SpoofedTransactionIdDiscarded) {
  World world("spoof.com");
  // An off-path attacker blindly flips the transaction ID: the resolver
  // must drop the response (and, with no second answer coming, SERVFAIL).
  world.internet.network().set_tamper(
      [](dns::Message& response, const IpAddress&, const IpAddress&) {
        response.header.id ^= 0x5555;
        return true;
      });
  auto victim = world.internet.make_resolver(
      resolver::ResolverProfile::bind9_2021(), IpAddress::v4(203, 0, 113, 13));
  const auto response =
      victim->resolve(Name::must_parse("www.spoof.com"), RrType::kA);
  world.internet.network().set_tamper(nullptr);
  EXPECT_EQ(response.header.rcode, Rcode::kServFail);
}

TEST(ResolverMisbehavior, SpoofedQuestionDiscarded) {
  World world("spoofq.com");
  world.internet.network().set_tamper(
      [](dns::Message& response, const IpAddress&, const IpAddress&) {
        if (response.questions.empty()) return false;
        response.questions.front().name =
            Name::must_parse("evil.example");
        return true;
      });
  auto victim = world.internet.make_resolver(
      resolver::ResolverProfile::bind9_2021(), IpAddress::v4(203, 0, 113, 14));
  const auto response =
      victim->resolve(Name::must_parse("www.spoofq.com"), RrType::kA);
  world.internet.network().set_tamper(nullptr);
  EXPECT_EQ(response.header.rcode, Rcode::kServFail);
}

TEST(ResolverMisbehavior, ForgedAnswerDataFailsValidation) {
  World world("forged.com");
  // An on-path attacker rewrites the A record in the final answer. The
  // RRSIG no longer matches → SERVFAIL, the core DNSSEC guarantee.
  world.internet.network().set_tamper(
      [](dns::Message& response, const IpAddress&, const IpAddress&) {
        bool touched = false;
        for (auto& rr : response.answers) {
          if (rr.type == RrType::kA && rr.rdata.size() == 4) {
            rr.rdata[3] ^= 0xff;
            touched = true;
          }
        }
        return touched;
      });
  auto victim = world.internet.make_resolver(
      resolver::ResolverProfile::bind9_2021(), IpAddress::v4(203, 0, 113, 15));
  const auto response =
      victim->resolve(Name::must_parse("www.forged.com"), RrType::kA);
  world.internet.network().set_tamper(nullptr);
  EXPECT_EQ(response.header.rcode, Rcode::kServFail);
}

TEST(ResolverMisbehavior, ForgedAnswerAcceptedWithoutValidation) {
  World world("unvalidated.com");
  world.internet.network().set_tamper(
      [](dns::Message& response, const IpAddress&, const IpAddress&) {
        bool touched = false;
        for (auto& rr : response.answers) {
          if (rr.type == RrType::kA && rr.rdata.size() == 4) {
            rr.rdata[3] ^= 0xff;
            touched = true;
          }
        }
        return touched;
      });
  auto victim = world.internet.make_resolver(
      resolver::ResolverProfile::non_validating(),
      IpAddress::v4(203, 0, 113, 16));
  const auto response =
      victim->resolve(Name::must_parse("www.unvalidated.com"), RrType::kA);
  world.internet.network().set_tamper(nullptr);
  // The non-validating resolver happily serves the forged record — the
  // counterfactual that motivates DNSSEC in the first place.
  EXPECT_EQ(response.header.rcode, Rcode::kNoError);
  ASSERT_EQ(response.answers_with(RrType::kA).size(), 1u);
}


TEST(ResolverMisbehavior, UnsupportedDsAlgorithmIsInsecureNotBogus) {
  // RFC 4035 §5.2: a delegation whose only DS uses an algorithm the
  // validator does not implement makes the child insecure — resolution
  // works, the AD bit just stays clear.
  testbed::Internet internet;
  internet.add_tld("com", testbed::TldConfig{});
  testbed::DomainConfig config;
  config.apex = Name::must_parse("exotic.com");
  config.nsec3 = {.iterations = 0, .salt = {}, .opt_out = false};
  config.ds_algorithm_override = 8;  // RSASHA256: recognised, unimplemented
  internet.add_domain(config);
  internet.build();

  auto r = internet.make_resolver(resolver::ResolverProfile::bind9_2021(),
                                  IpAddress::v4(203, 0, 113, 20));
  const auto positive =
      r->resolve(Name::must_parse("www.exotic.com"), RrType::kA);
  EXPECT_EQ(positive.header.rcode, Rcode::kNoError);
  EXPECT_FALSE(positive.header.ad);
  EXPECT_EQ(positive.answers_with(RrType::kA).size(), 1u);

  const auto negative =
      r->resolve(Name::must_parse("nope.exotic.com"), RrType::kA);
  EXPECT_EQ(negative.header.rcode, Rcode::kNxDomain);
  EXPECT_FALSE(negative.header.ad);
}

}  // namespace
}  // namespace zh
