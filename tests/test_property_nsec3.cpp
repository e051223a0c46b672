// Property tests on NSEC3 chain invariants and denial-proof completeness:
// for randomly generated zones, the signer's chain must be sorted, circular
// and duplicate-free; the server's proofs must verify for arbitrary
// nonexistent names; and the server↔validator pair must agree end to end.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "dns/dnssec.hpp"
#include "server/auth_server.hpp"
#include "testbed/internet.hpp"
#include "zone/signer.hpp"

namespace zh::zone {
namespace {

using dns::Name;
using dns::RrType;

struct ZoneParams {
  std::uint64_t seed;
  std::uint16_t iterations;
  std::uint8_t salt_len;
  bool opt_out;
};

class Nsec3ChainProperty : public ::testing::TestWithParam<ZoneParams> {
 protected:
  /// Builds a random zone: hosts, empty non-terminal branches, wildcards,
  /// secure + insecure delegations.
  static Zone random_zone(const ZoneParams& params) {
    std::mt19937_64 rng(params.seed);
    Zone zone(Name::must_parse("prop.example"));
    zone.add(dns::make_soa(zone.apex(), 3600,
                           Name::must_parse("ns1.prop.example"), 1));
    zone.add(dns::make_ns(zone.apex(), 3600,
                          Name::must_parse("ns1.prop.example")));
    zone.add(dns::make_a(Name::must_parse("ns1.prop.example"), 3600, 192, 0,
                         2, 53));

    const std::size_t hosts = 3 + rng() % 20;
    for (std::size_t i = 0; i < hosts; ++i) {
      std::string label = "h" + std::to_string(rng() % 1000);
      Name owner = *zone.apex().prepended(label);
      if (rng() % 3 == 0) owner = *owner.prepended("deep");  // makes ENTs
      zone.add(dns::make_a(owner, 300, 10, 0, 0,
                           static_cast<std::uint8_t>(i)));
    }
    if (rng() % 2) {
      zone.add(dns::make_a(
          Name::must_parse("wc.prop.example").wildcard_child(), 300, 10, 9,
          9, 9));
    }
    // Delegations.
    zone.add(dns::make_ns(Name::must_parse("insecure-child.prop.example"),
                          3600, Name::must_parse("ns.elsewhere.net")));
    zone.add(dns::make_ns(Name::must_parse("secure-child.prop.example"),
                          3600, Name::must_parse("ns.elsewhere.net")));
    dns::DsRdata ds;
    ds.key_tag = 7;
    ds.algorithm = 253;
    ds.digest.assign(32, 0x55);
    zone.add(dns::ResourceRecord::make(
        Name::must_parse("secure-child.prop.example"), RrType::kDs, 3600,
        ds));
    return zone;
  }

  static SignerConfig config_for(const ZoneParams& params) {
    SignerConfig config;
    config.nsec3.iterations = params.iterations;
    config.nsec3.salt.assign(params.salt_len, 0x77);
    config.nsec3.opt_out = params.opt_out;
    return config;
  }
};

TEST_P(Nsec3ChainProperty, ChainSortedCircularAndUnique) {
  Zone zone = random_zone(GetParam());
  sign_zone(zone, config_for(GetParam()));

  const auto& entries = zone.nsec3_entries();
  ASSERT_GE(entries.size(), 3u);
  std::set<std::vector<std::uint8_t>> seen;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(seen.insert(entries[i].hash).second) << "duplicate hash";
    if (i > 0) {
      EXPECT_LT(entries[i - 1].hash, entries[i].hash) << "not sorted";
    }
    EXPECT_EQ(entries[i].rdata.next_hash,
              entries[(i + 1) % entries.size()].hash)
        << "chain broken at " << i;
    EXPECT_EQ(entries[i].hash.size(), 20u);
    EXPECT_EQ(entries[i].rdata.iterations, GetParam().iterations);
    EXPECT_EQ(entries[i].rdata.salt.size(), GetParam().salt_len);
    EXPECT_EQ(entries[i].rdata.opt_out(), GetParam().opt_out);
    ASSERT_FALSE(entries[i].rrsigs.empty());
  }
}

TEST_P(Nsec3ChainProperty, EveryExistingNameMatchesOrIsOptedOut) {
  Zone zone = random_zone(GetParam());
  const auto config = config_for(GetParam());
  sign_zone(zone, config);

  zone.for_each_node([&](const Name& name, const ZoneNode& node) {
    if (zone.delegation_for(name) &&
        !zone.delegation_for(name)->equals(name))
      return;  // occluded glue
    const bool insecure_delegation =
        !name.equals(zone.apex()) && node.has(RrType::kNs) &&
        !node.has(RrType::kDs);
    const auto hash = dns::nsec3_hash_name(
        name,
        std::span<const std::uint8_t>(config.nsec3.salt.data(),
                                      config.nsec3.salt.size()),
        config.nsec3.iterations);
    const auto* entry = zone.nsec3_matching(
        std::span<const std::uint8_t>(hash.data(), hash.size()));
    if (config.nsec3.opt_out && insecure_delegation) {
      EXPECT_EQ(entry, nullptr) << name.to_string();
    } else {
      EXPECT_NE(entry, nullptr) << name.to_string();
    }
  });
}

TEST_P(Nsec3ChainProperty, RandomAbsentNamesAreCovered) {
  Zone zone = random_zone(GetParam());
  const auto config = config_for(GetParam());
  sign_zone(zone, config);

  std::mt19937_64 rng(GetParam().seed ^ 0xfeed);
  for (int i = 0; i < 50; ++i) {
    const Name absent =
        *zone.apex().prepended("absent" + std::to_string(rng()));
    if (zone.name_exists(absent)) continue;
    const auto hash = dns::nsec3_hash_name(
        absent,
        std::span<const std::uint8_t>(config.nsec3.salt.data(),
                                      config.nsec3.salt.size()),
        config.nsec3.iterations);
    const std::span<const std::uint8_t> hspan(hash.data(), hash.size());
    // Either covered by an interval or (astronomically unlikely) matching.
    EXPECT_TRUE(zone.nsec3_covering(hspan) != nullptr ||
                zone.nsec3_matching(hspan) != nullptr)
        << absent.to_string();
  }
}

TEST_P(Nsec3ChainProperty, ServerProofsAreSelfConsistent) {
  auto zone = std::make_shared<Zone>(random_zone(GetParam()));
  const auto config = config_for(GetParam());
  sign_zone(*zone, config);

  server::AuthoritativeServer server("prop-ns");
  server.add_zone(zone);

  std::mt19937_64 rng(GetParam().seed ^ 0xbeef);
  for (int i = 0; i < 25; ++i) {
    const Name qname =
        *zone->apex().prepended("nx" + std::to_string(rng()));
    const auto query =
        dns::Message::make_query(1, qname, RrType::kA, /*dnssec_ok=*/true);
    const auto response =
        server.handle(query, simnet::IpAddress::v4(198, 51, 100, 9));
    if (response.header.rcode != dns::Rcode::kNxDomain) continue;

    // Reconstruct the proof exactly as a validator would.
    const auto nsec3s = response.authorities_with(RrType::kNsec3);
    ASSERT_GE(nsec3s.size(), 1u);
    const auto qhash = dns::nsec3_hash_name(
        qname,
        std::span<const std::uint8_t>(config.nsec3.salt.data(),
                                      config.nsec3.salt.size()),
        config.nsec3.iterations);
    bool covered = false;
    for (const auto& rr : nsec3s) {
      const auto owner_hash = dns::nsec3_owner_hash(rr.name, zone->apex());
      const auto rdata = rr.as<dns::Nsec3Rdata>();
      ASSERT_TRUE(owner_hash && rdata);
      if (dns::nsec3_covers(
              std::span<const std::uint8_t>(owner_hash->data(),
                                            owner_hash->size()),
              std::span<const std::uint8_t>(rdata->next_hash.data(),
                                            rdata->next_hash.size()),
              std::span<const std::uint8_t>(qhash.data(), qhash.size())))
        covered = true;
    }
    EXPECT_TRUE(covered) << qname.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Nsec3ChainProperty,
    ::testing::Values(ZoneParams{1, 0, 0, false}, ZoneParams{2, 0, 8, false},
                      ZoneParams{3, 1, 8, false}, ZoneParams{4, 5, 0, true},
                      ZoneParams{5, 10, 4, false}, ZoneParams{6, 100, 8, true},
                      ZoneParams{7, 150, 40, false},
                      ZoneParams{8, 500, 16, true},
                      ZoneParams{9, 2500, 0, false},
                      ZoneParams{10, 1, 160, false}),
    [](const ::testing::TestParamInfo<ZoneParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_it" +
             std::to_string(info.param.iterations) + "_salt" +
             std::to_string(info.param.salt_len) +
             (info.param.opt_out ? "_optout" : "");
    });

}  // namespace
}  // namespace zh::zone
