// Integration tests for the measurement pipeline: the §4.1 domain scanner
// against lazily-hosted synthetic domains, the TLD census, and the §4.2
// resolver prober (threshold inference, Item 7/12 detection, aggregation).
#include <gtest/gtest.h>

#include <memory>

#include "scanner/campaign.hpp"
#include "workload/install.hpp"
#include "workload/resolver_population.hpp"

namespace zh::scanner {
namespace {

using dns::Name;
using dns::Rcode;
using simnet::IpAddress;

/// Small shared world: probe infrastructure + a thin domain population.
class ScannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new workload::EcosystemSpec({.scale = 0.00002, .seed = 42});
    internet_ = new testbed::Internet();
    probe_specs_ = testbed::add_probe_infrastructure(*internet_);
    workload::install_ecosystem(*internet_, *spec_);
    internet_->build();
    scan_resolver_ = internet_
                         ->make_resolver(resolver::ResolverProfile::cloudflare(),
                                         IpAddress::v4(1, 1, 1, 1))
                         .release();
  }
  static void TearDownTestSuite() {
    delete scan_resolver_;
    delete internet_;
    delete spec_;
  }

  static workload::EcosystemSpec* spec_;
  static testbed::Internet* internet_;
  static std::vector<testbed::ProbeZone> probe_specs_;
  static resolver::RecursiveResolver* scan_resolver_;
};

workload::EcosystemSpec* ScannerTest::spec_ = nullptr;
testbed::Internet* ScannerTest::internet_ = nullptr;
std::vector<testbed::ProbeZone> ScannerTest::probe_specs_;
resolver::RecursiveResolver* ScannerTest::scan_resolver_ = nullptr;

TEST_F(ScannerTest, ScanRecoversGroundTruthParameters) {
  DomainScanner scanner(internet_->network(), IpAddress::v4(203, 0, 113, 200),
                        scan_resolver_->address());
  std::size_t checked = 0;
  for (std::size_t index = 0; index < spec_->domain_count() && checked < 40;
       ++index) {
    const workload::DomainProfile profile = spec_->domain(index);
    if (profile.denial != zone::DenialMode::kNsec3) continue;
    ++checked;
    const DomainScanResult result = scanner.scan(profile.apex);
    ASSERT_EQ(result.classification, DomainScanResult::Class::kNsec3Enabled)
        << profile.apex.to_string();
    ASSERT_TRUE(result.nsec3);
    EXPECT_EQ(result.nsec3->iterations, profile.nsec3.iterations);
    EXPECT_EQ(result.nsec3->salt, profile.nsec3.salt);
    EXPECT_EQ(result.nsec3->opt_out, profile.nsec3.opt_out);
    EXPECT_TRUE(result.nsec3->records_consistent);
    EXPECT_TRUE(result.nsec3->matches_nsec3param);
    ASSERT_TRUE(result.nsec3param);
    EXPECT_EQ(result.nsec3param->iterations, profile.nsec3.iterations);
  }
  EXPECT_EQ(checked, 40u);
}

TEST_F(ScannerTest, ScanClassifiesNonDnssecAndNsecDomains) {
  DomainScanner scanner(internet_->network(), IpAddress::v4(203, 0, 113, 201),
                        scan_resolver_->address());
  bool saw_plain = false, saw_nsec = false;
  for (std::size_t index = 0;
       index < spec_->domain_count() && !(saw_plain && saw_nsec); ++index) {
    const workload::DomainProfile profile = spec_->domain(index);
    if (!profile.dnssec && !saw_plain) {
      const DomainScanResult result = scanner.scan(profile.apex);
      EXPECT_EQ(result.classification, DomainScanResult::Class::kNoDnssec);
      EXPECT_FALSE(result.dnskey);
      saw_plain = true;
    }
    if (profile.dnssec && profile.denial == zone::DenialMode::kNsec &&
        !saw_nsec) {
      const DomainScanResult result = scanner.scan(profile.apex);
      EXPECT_EQ(result.classification,
                DomainScanResult::Class::kDnssecNoNsec3);
      EXPECT_TRUE(result.dnskey);
      EXPECT_TRUE(result.nsec_seen);
      saw_nsec = true;
    }
  }
  EXPECT_TRUE(saw_plain);
  EXPECT_TRUE(saw_nsec);
}

TEST_F(ScannerTest, ScanExtractsOperatorNsNames) {
  DomainScanner scanner(internet_->network(), IpAddress::v4(203, 0, 113, 202),
                        scan_resolver_->address());
  for (std::size_t index = 0; index < spec_->domain_count(); ++index) {
    const workload::DomainProfile profile = spec_->domain(index);
    if (profile.denial != zone::DenialMode::kNsec3) continue;
    const DomainScanResult result = scanner.scan(profile.apex);
    const std::string op_name =
        spec_->operators()[profile.operator_index].name;
    ASSERT_EQ(result.ns_names.size(), 2u);
    EXPECT_TRUE(result.ns_names[0].is_subdomain_of(
        Name::must_parse(op_name + ".net")))
        << result.ns_names[0].to_string() << " vs " << op_name;
    break;
  }
}

TEST_F(ScannerTest, CampaignAggregatesConsistently) {
  DomainCampaign campaign(*internet_, *spec_, scan_resolver_->address());
  campaign.run(400);
  const DomainCampaignStats& stats = campaign.stats();
  EXPECT_EQ(stats.scanned, 400u);
  EXPECT_GT(stats.dnssec, 0u);
  EXPECT_GT(stats.nsec3, 0u);
  EXPECT_EQ(stats.iterations.total(), stats.nsec3);
  EXPECT_EQ(stats.salt_len.total(), stats.nsec3);
  EXPECT_EQ(stats.zero_iterations + stats.iterations.count_above(0),
            stats.nsec3);
  // The planted specials (indexes 0..212) must be visible.
  EXPECT_EQ(stats.over_150_iterations, 43u);
  EXPECT_EQ(stats.at_500_iterations, 12u);
  EXPECT_EQ(stats.salt_over_45, 170u);
  EXPECT_EQ(stats.salt_at_160, 9u);
  // Records come in domain-index order: 0 is present, 401 is not.
  const std::vector<CompactDomainRecord>& records = campaign.records();
  EXPECT_EQ(records.size(), 400u);
  EXPECT_EQ(records.front().index, 0u);
  EXPECT_LT(records.back().index, 401u);
}

TEST_F(ScannerTest, TldCensusThroughTheWire) {
  const TldCensusStats stats =
      scan_tlds(*internet_, *spec_, scan_resolver_->address());
  EXPECT_EQ(stats.scanned, 1449u);
  EXPECT_EQ(stats.dnssec, 1354u);
  EXPECT_EQ(stats.nsec3, 1302u);
  EXPECT_EQ(stats.zero_iterations, 688u);
  EXPECT_EQ(stats.at_100_iterations, 447u);
  EXPECT_EQ(stats.salt_8, 558u);
  EXPECT_EQ(stats.salt_10, 7u);
  EXPECT_NEAR(static_cast<double>(stats.opt_out) / stats.nsec3, 0.854, 0.02);
}

TEST_F(ScannerTest, ProberClassifiesValidator) {
  auto validating = internet_->make_resolver(
      resolver::ResolverProfile::bind9_2021(), IpAddress::v4(203, 0, 113, 210));
  auto plain = internet_->make_resolver(
      resolver::ResolverProfile::non_validating(),
      IpAddress::v4(203, 0, 113, 211));

  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 212),
                        probe_specs_);
  const ResolverProbeResult v = prober.probe(validating->address(), "tv");
  EXPECT_TRUE(v.responsive);
  EXPECT_TRUE(v.validator);
  const ResolverProbeResult p = prober.probe(plain->address(), "tp");
  EXPECT_TRUE(p.responsive);
  EXPECT_FALSE(p.validator);
}

TEST_F(ScannerTest, ProberInfersInsecureLimit150) {
  auto r = internet_->make_resolver(resolver::ResolverProfile::bind9_2021(),
                                    IpAddress::v4(203, 0, 113, 213));
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 214),
                        probe_specs_);
  const ResolverProbeResult result = prober.probe(r->address(), "t150");
  EXPECT_TRUE(result.implements_item6);
  EXPECT_FALSE(result.implements_item8);
  ASSERT_TRUE(result.insecure_limit);
  EXPECT_EQ(*result.insecure_limit, 150);
  ASSERT_TRUE(result.first_insecure);
  EXPECT_EQ(*result.first_insecure, 151);
  EXPECT_FALSE(result.item7_violation);
  // bind9-2021 predates EDE support: no EDE on the limited response.
  EXPECT_FALSE(result.limit_ede);
}

TEST_F(ScannerTest, ProberCapturesEde27FromCveEraSoftware) {
  auto r = internet_->make_resolver(resolver::ResolverProfile::knot_2023(),
                                    IpAddress::v4(203, 0, 113, 227));
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 228),
                        probe_specs_);
  const ResolverProbeResult result = prober.probe(r->address(), "tede");
  ASSERT_TRUE(result.insecure_limit);
  EXPECT_EQ(*result.insecure_limit, 50);
  ASSERT_TRUE(result.limit_ede);
  EXPECT_EQ(*result.limit_ede, dns::EdeCode::kUnsupportedNsec3Iterations);
}

TEST_F(ScannerTest, ProberInfersServfailLimit150) {
  auto r = internet_->make_resolver(resolver::ResolverProfile::cloudflare(),
                                    IpAddress::v4(203, 0, 113, 215));
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 216),
                        probe_specs_);
  const ResolverProbeResult result = prober.probe(r->address(), "tcf");
  EXPECT_TRUE(result.implements_item8);
  EXPECT_FALSE(result.implements_item6);
  ASSERT_TRUE(result.servfail_limit);
  EXPECT_EQ(*result.servfail_limit, 150);
  ASSERT_TRUE(result.first_servfail);
  EXPECT_EQ(*result.first_servfail, 151);
}

TEST_F(ScannerTest, ProberInfersStrictZero) {
  auto r = internet_->make_resolver(resolver::ResolverProfile::strict_zero(),
                                    IpAddress::v4(203, 0, 113, 217));
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 218),
                        probe_specs_);
  const ResolverProbeResult result = prober.probe(r->address(), "tsz");
  EXPECT_TRUE(result.implements_item8);
  ASSERT_TRUE(result.first_servfail);
  EXPECT_EQ(*result.first_servfail, 1);
  EXPECT_EQ(*result.servfail_limit, 0);
}

TEST_F(ScannerTest, ProberDetectsItem7Violation) {
  auto r = internet_->make_resolver(
      resolver::ResolverProfile::item7_violator(),
      IpAddress::v4(203, 0, 113, 219));
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 220),
                        probe_specs_);
  const ResolverProbeResult result = prober.probe(r->address(), "ti7");
  EXPECT_TRUE(result.implements_item6);
  EXPECT_TRUE(result.item7_violation);
}

TEST_F(ScannerTest, ProberDetectsItem12Gap) {
  auto r = internet_->make_resolver(resolver::ResolverProfile::item12_gap(),
                                    IpAddress::v4(203, 0, 113, 221));
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 222),
                        probe_specs_);
  const ResolverProbeResult result = prober.probe(r->address(), "t12");
  EXPECT_TRUE(result.item12_gap);
  EXPECT_EQ(*result.insecure_limit, 100);
  EXPECT_EQ(*result.servfail_limit, 150);
}

TEST_F(ScannerTest, SweepAggregation) {
  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 113, 223),
                        probe_specs_);
  ResolverSweepStats stats;
  auto a = internet_->make_resolver(resolver::ResolverProfile::bind9_2021(),
                                    IpAddress::v4(203, 0, 113, 224));
  auto b = internet_->make_resolver(resolver::ResolverProfile::cloudflare(),
                                    IpAddress::v4(203, 0, 113, 225));
  auto c = internet_->make_resolver(
      resolver::ResolverProfile::non_validating(),
      IpAddress::v4(203, 0, 113, 226));
  stats.add(prober.probe(a->address(), "agg-a"));
  stats.add(prober.probe(b->address(), "agg-b"));
  stats.add(prober.probe(c->address(), "agg-c"));

  EXPECT_EQ(stats.probed, 3u);
  EXPECT_EQ(stats.validators, 2u);
  EXPECT_EQ(stats.item6, 1u);
  EXPECT_EQ(stats.item8, 1u);
  EXPECT_EQ(stats.insecure_limits.at(150), 1u);
  EXPECT_EQ(stats.servfail_limits.at(150), 1u);

  // Figure 3 series sanity: at 5 iterations both validators answer
  // NXDOMAIN+AD; at 500 one is insecure-NXDOMAIN and one SERVFAILs.
  const auto& low = stats.by_iteration.at(5);
  EXPECT_EQ(low.nxdomain, 2u);
  EXPECT_EQ(low.nxdomain_ad, 2u);
  EXPECT_EQ(low.servfail, 0u);
  const auto& high = stats.by_iteration.at(500);
  EXPECT_EQ(high.nxdomain, 1u);
  EXPECT_EQ(high.nxdomain_ad, 0u);
  EXPECT_EQ(high.servfail, 1u);
}


TEST_F(ScannerTest, ServerLogsExposeForwardingTargets) {
  // §4.2: "We enable server-side logging to track source IP addresses
  // interacting with our name server. If the query destination is a
  // forwarder, this helps identify the forwarding target."
  auto upstream = internet_->make_resolver(
      resolver::ResolverProfile::cloudflare(), IpAddress::v4(203, 0, 114, 1));
  resolver::RecursiveResolver::Config config;
  config.address = IpAddress::v4(203, 0, 114, 2);
  config.profile = resolver::ResolverProfile::non_validating();
  config.forward = true;
  config.forward_target = upstream->address();
  config.trust_anchor = internet_->trust_anchor();
  resolver::RecursiveResolver forwarder(internet_->network(), config,
                                        internet_->root_servers());
  forwarder.attach();

  // The probe zones are hosted at 192.0.2.3 (testbed probe host).
  const auto probe_host = IpAddress::v4(192, 0, 2, 3);
  internet_->network().enable_logging_for(probe_host);
  internet_->network().clear_query_log();

  ResolverProber prober(internet_->network(), IpAddress::v4(203, 0, 114, 3),
                        probe_specs_);
  (void)prober.probe(forwarder.address(), "fwdlog");

  bool saw_upstream = false, saw_forwarder = false;
  for (const auto& entry : internet_->network().query_log()) {
    if (entry.source == upstream->address()) saw_upstream = true;
    if (entry.source == forwarder.address()) saw_forwarder = true;
  }
  internet_->network().clear_query_log();
  EXPECT_TRUE(saw_upstream)
      << "the authoritative log reveals the forwarding target";
  EXPECT_FALSE(saw_forwarder)
      << "the forwarder itself never contacts the authoritative server";
}

}  // namespace
}  // namespace zh::scanner
