// Tests for the Internet assembly: delegation/glue consistency, DS-vs-key
// agreement across zone cuts, probe-zone construction, and lazy-vs-eager
// materialisation equivalence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dns/dnssec.hpp"
#include "testbed/internet.hpp"
#include "workload/install.hpp"

namespace zh::testbed {
namespace {

using dns::Name;
using dns::RrType;
using simnet::IpAddress;

TEST(Testbed, RootDelegatesEveryTldWithConsistentDs) {
  Internet internet;
  internet.add_tld("com", TldConfig{});
  internet.add_tld("org", TldConfig{});
  TldConfig unsigned_tld;
  unsigned_tld.dnssec = false;
  internet.add_tld("xx", unsigned_tld);
  internet.build();

  const auto root = internet.zone(Name::root());
  ASSERT_NE(root, nullptr);
  for (const char* label : {"com", "org"}) {
    const Name apex = Name::must_parse(label);
    ASSERT_NE(root->find(apex, RrType::kNs), nullptr) << label;
    const auto* ds_set = root->find(apex, RrType::kDs);
    ASSERT_NE(ds_set, nullptr) << label;
    // The DS in the root must match the TLD's actual KSK.
    const auto ds = dns::DsRdata::decode(std::span<const std::uint8_t>(
        ds_set->rdatas.front().data(), ds_set->rdatas.front().size()));
    ASSERT_TRUE(ds);
    const auto ksk = zone::derive_dnskey(apex.to_string(), true);
    EXPECT_TRUE(dns::ds_matches_key(*ds, apex, ksk)) << label;
  }
  // Unsigned TLD: NS but no DS.
  EXPECT_NE(root->find(Name::must_parse("xx"), RrType::kNs), nullptr);
  EXPECT_EQ(root->find(Name::must_parse("xx"), RrType::kDs), nullptr);
}

TEST(Testbed, GlueMatchesHostAddresses) {
  Internet internet;
  internet.add_tld("com", TldConfig{});
  DomainConfig config;
  config.apex = Name::must_parse("glued.com");
  config.host = IpAddress::v4(192, 0, 2, 77);
  internet.add_domain(config);
  internet.build();

  const auto com = internet.zone(Name::must_parse("com"));
  ASSERT_NE(com, nullptr);
  const auto* glue = com->find(Name::must_parse("ns1.glued.com"), RrType::kA);
  ASSERT_NE(glue, nullptr);
  const auto a = dns::ARdata::decode(std::span<const std::uint8_t>(
      glue->rdatas.front().data(), glue->rdatas.front().size()));
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "192.0.2.77");
}

TEST(Testbed, ProbeZonesMatchSpecParameters) {
  Internet internet;
  const auto specs = add_probe_infrastructure(internet);
  internet.build();

  ASSERT_EQ(specs.size(), 50u);
  for (const auto& spec : specs) {
    const auto zone = internet.zone(spec.apex);
    ASSERT_NE(zone, nullptr) << spec.label;
    const auto param = zone->nsec3param();
    ASSERT_TRUE(param) << spec.label;
    EXPECT_EQ(param->iterations, spec.iterations) << spec.label;
    EXPECT_TRUE(param->salt.empty()) << spec.label << " (§4.2: no salt)";
    // Wildcard branch present for the cache-busting probes.
    EXPECT_TRUE(zone->name_exists(
        Name::must_parse("wc." + spec.apex.to_string())
            .wildcard_child()))
        << spec.label;
  }
}

TEST(Testbed, OperatorsServeTheirOwnZones) {
  Internet internet;
  const std::size_t op = internet.add_operator("hostco");
  internet.build();
  const OperatorHandle& handle = internet.hosting_operator(op);
  EXPECT_EQ(handle.ns_names.size(), 2u);
  EXPECT_TRUE(internet.network().is_attached(handle.address_v4));
  EXPECT_TRUE(internet.network().is_attached(handle.address_v6));
  // The operator's own zone resolves its NS names to its own address.
  const auto zone = internet.zone(Name::must_parse("hostco.net"));
  ASSERT_NE(zone, nullptr);
  const auto* a = zone->find(handle.ns_names[0], RrType::kA);
  ASSERT_NE(a, nullptr);
  const auto rdata = dns::ARdata::decode(std::span<const std::uint8_t>(
      a->rdatas.front().data(), a->rdatas.front().size()));
  ASSERT_TRUE(rdata);
  EXPECT_EQ(rdata->to_string(), handle.address_v4.to_string());
}

TEST(Testbed, LazyMaterialisationMatchesEagerConstruction) {
  // The same DomainConfig must yield byte-identical zones whether built
  // eagerly at build() or on demand by a provider.
  workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  std::optional<workload::DomainProfile> nsec3_profile;
  for (std::size_t i = 0; i < spec.domain_count(); ++i) {
    const auto profile = spec.domain(i);
    if (profile.denial == zone::DenialMode::kNsec3) {
      nsec3_profile = profile;
      break;
    }
  }
  ASSERT_TRUE(nsec3_profile);

  const auto config = workload::domain_config_for(*nsec3_profile, spec);
  const auto host = IpAddress::v4(10, 1, 2, 3);
  const auto once = Internet::materialise_zone(config, host);
  const auto twice = Internet::materialise_zone(config, host);
  EXPECT_EQ(once->to_text(), twice->to_text());
  EXPECT_EQ(once->nsec3_entries().size(), twice->nsec3_entries().size());
}

TEST(Testbed, EndToEndResolutionThroughEveryLayer) {
  // One assertion that touches root, TLD, operator glue resolution, lazy
  // materialisation and validation all at once.
  workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  Internet internet;
  workload::install_ecosystem(internet, spec);
  internet.build();
  auto r = internet.make_resolver(resolver::ResolverProfile::bind9_2021(),
                                  IpAddress::v4(203, 0, 113, 1));
  for (std::size_t i = 0; i < spec.domain_count(); ++i) {
    const auto profile = spec.domain(i);
    if (profile.denial != zone::DenialMode::kNsec3 ||
        profile.nsec3.iterations > 150)
      continue;
    const auto resp =
        r->resolve(*profile.apex.prepended("www"), dns::RrType::kA);
    EXPECT_EQ(resp.header.rcode, dns::Rcode::kNoError)
        << profile.apex.to_string();
    // AD unless the domain landed under an unsigned TLD (insecure chain).
    break;
  }
}

// Every delegation's NS lands in the zone the linear rule picks: the
// deepest eager apex above it (first on ties), else the earliest declared
// TLD above it, else the root. Nested eager apexes and the nested TLDs
// `uk` and `co.uk` are declared in both orders.
TEST(Testbed, ParentSelectionFollowsTheLinearRule) {
  for (const bool uk_first : {true, false}) {
    Internet internet;
    const std::vector<std::string> tlds =
        uk_first ? std::vector<std::string>{"uk", "co.uk", "com"}
                 : std::vector<std::string>{"co.uk", "uk", "com"};
    for (const auto& tld : tlds) internet.add_tld(tld, TldConfig{});
    const std::size_t op = internet.add_operator("hoster");
    const std::vector<std::string> eager = {"Example.co.uk", "a.example.co.uk",
                                            "b.a.example.co.UK", "plain.uk"};
    for (const auto& apex : eager) {
      DomainConfig config;
      config.apex = Name::must_parse(apex);
      config.dnssec = false;
      internet.add_domain(config);
    }
    const std::vector<std::string> lazy = {
        "l1.co.uk",          "l2.uk",               "x.example.co.uk",
        "y.A.example.co.uk", "z.b.a.example.co.uk", "deep.q.plain.uk",
        "top.com",           "w.hoster.net"};
    for (const auto& apex : lazy)
      internet.add_lazy_delegation(
          {.apex = Name::must_parse(apex), .dnssec = false,
           .operator_index = op});
    internet.build();

    // The linear rule, over the declared apexes.
    const auto expected_parent = [&](const Name& child) {
      Name best = Name::root();
      std::size_t best_labels = 0;
      std::vector<Name> eager_apexes;
      for (const auto& apex : eager)
        eager_apexes.push_back(Name::must_parse(apex));
      eager_apexes.push_back(Name::must_parse("hoster.net"));
      for (const Name& candidate : eager_apexes) {
        if (child.is_subdomain_of(candidate) && !child.equals(candidate) &&
            candidate.label_count() > best_labels) {
          best = candidate;
          best_labels = candidate.label_count();
        }
      }
      if (best_labels > 0) return best;
      std::vector<std::string> declared = tlds;
      declared.push_back("net");
      for (const auto& tld : declared) {
        const Name apex = Name::must_parse(tld);
        if (child.is_subdomain_of(apex) && !child.equals(apex)) return apex;
      }
      return Name::root();
    };
    std::vector<std::string> children = lazy;
    children.insert(children.end(), eager.begin(), eager.end());
    std::vector<std::string> zones = tlds;
    zones.insert(zones.end(), eager.begin(), eager.end());
    zones.push_back("net");
    zones.push_back("hoster.net");
    zones.push_back(".");
    for (const auto& text : children) {
      const Name child = Name::must_parse(text);
      const Name parent = expected_parent(child);
      for (const auto& zone_text : zones) {
        const auto zone = internet.zone(Name::must_parse(zone_text));
        ASSERT_NE(zone, nullptr) << zone_text;
        if (zone->apex().equals(child)) continue;  // its own apex NS
        const bool holds = zone->find(child, RrType::kNs) != nullptr;
        EXPECT_EQ(holds, zone->apex().equals(parent))
            << text << " in " << zone_text << " (uk first: " << uk_first
            << ")";
      }
    }
  }
}

}  // namespace
}  // namespace zh::testbed
