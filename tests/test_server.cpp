// Unit tests for the authoritative server: positive answers, NODATA,
// NXDOMAIN with complete NSEC3 closest-encloser proofs, wildcard synthesis,
// referrals (secure, insecure, opt-out), glue, and lazy zone hosting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "dns/dnssec.hpp"
#include "server/auth_server.hpp"
#include "zone/signer.hpp"

namespace zh::server {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RrType;
using zone::Zone;

constexpr std::uint16_t kIterations = 7;

std::shared_ptr<const Zone> make_signed_zone() {
  auto zone = std::make_shared<Zone>(Name::must_parse("example.com"));
  zone->add(dns::make_soa(zone->apex(), 3600,
                          Name::must_parse("ns1.example.com"), 1));
  zone->add(dns::make_ns(zone->apex(), 3600,
                         Name::must_parse("ns1.example.com")));
  zone->add(dns::make_a(Name::must_parse("ns1.example.com"), 3600, 192, 0, 2,
                        53));
  zone->add(dns::make_a(Name::must_parse("www.example.com"), 300, 192, 0, 2,
                        80));
  zone->add(dns::make_txt(Name::must_parse("www.example.com"), 300, "web"));
  zone->add(dns::make_a(Name::must_parse("*.wc.example.com"), 300, 192, 0, 2,
                        100));
  // Secure delegation.
  zone->add(dns::make_ns(Name::must_parse("secure.example.com"), 3600,
                         Name::must_parse("ns1.secure.example.com")));
  zone->add(dns::make_a(Name::must_parse("ns1.secure.example.com"), 3600, 192,
                        0, 2, 60));
  dns::DsRdata ds;
  ds.key_tag = 1234;
  ds.algorithm = 253;
  ds.digest.assign(32, 0x22);
  zone->add(dns::ResourceRecord::make(Name::must_parse("secure.example.com"),
                                      RrType::kDs, 3600, ds));
  // Insecure delegation.
  zone->add(dns::make_ns(Name::must_parse("insecure.example.com"), 3600,
                         Name::must_parse("ns.other.net")));

  zone::SignerConfig config;
  config.nsec3.iterations = kIterations;
  config.nsec3.salt = {0xca, 0xfe};
  zone::sign_zone(*zone, config);
  return zone;
}

Message ask(const AuthoritativeServer& server, std::string_view qname,
            RrType qtype, bool dnssec = true) {
  const Message query =
      Message::make_query(1, Name::must_parse(qname), qtype, dnssec);
  return server.handle(query, simnet::IpAddress::v4(198, 51, 100, 1));
}

std::size_t count_type(const std::vector<dns::ResourceRecord>& section,
                       RrType type) {
  std::size_t n = 0;
  for (const auto& rr : section)
    if (rr.type == type) ++n;
  return n;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { server_.add_zone(make_signed_zone()); }
  AuthoritativeServer server_{"ns1.example.com"};
};

TEST_F(ServerTest, PositiveAnswerWithSignature) {
  const Message resp = ask(server_, "www.example.com", RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.header.aa);
  ASSERT_EQ(resp.answers_with(RrType::kA).size(), 1u);
  EXPECT_EQ(count_type(resp.answers, RrType::kRrsig), 1u);
}

TEST_F(ServerTest, PositiveAnswerWithoutDoBitOmitsSignatures) {
  const Message resp = ask(server_, "www.example.com", RrType::kA,
                           /*dnssec=*/false);
  EXPECT_EQ(resp.answers_with(RrType::kA).size(), 1u);
  EXPECT_EQ(count_type(resp.answers, RrType::kRrsig), 0u);
}

TEST_F(ServerTest, NodataReturnsSoaAndMatchingNsec3) {
  const Message resp = ask(server_, "www.example.com", RrType::kAaaa);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.answers.empty());
  EXPECT_EQ(count_type(resp.authorities, RrType::kSoa), 1u);
  const auto nsec3s = resp.authorities_with(RrType::kNsec3);
  ASSERT_EQ(nsec3s.size(), 1u);
  // The NSEC3 must *match* www.example.com and prove AAAA absent, A present.
  const auto rdata = nsec3s.front().as<dns::Nsec3Rdata>();
  ASSERT_TRUE(rdata);
  EXPECT_TRUE(rdata->types.contains(RrType::kA));
  EXPECT_FALSE(rdata->types.contains(RrType::kAaaa));
  EXPECT_EQ(rdata->iterations, kIterations);
}

TEST_F(ServerTest, NxdomainCarriesFullClosestEncloserProof) {
  const Message resp = ask(server_, "does-not-exist.example.com", RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(count_type(resp.authorities, RrType::kSoa), 1u);
  const auto nsec3s = resp.authorities_with(RrType::kNsec3);
  EXPECT_EQ(nsec3s.size(), 3u);  // match(CE) + cover(next closer) + cover(*)
  EXPECT_EQ(count_type(resp.authorities, RrType::kRrsig), 4u);  // 3 + SOA

  // Verify the proof actually proves: CE = example.com matches, the qname
  // and wildcard hashes are covered.
  const std::vector<std::uint8_t> salt = {0xca, 0xfe};
  const auto ce_hash = dns::nsec3_hash_name(Name::must_parse("example.com"),
                                            salt, kIterations);
  const auto nc_hash = dns::nsec3_hash_name(
      Name::must_parse("does-not-exist.example.com"), salt, kIterations);
  const auto wc_hash = dns::nsec3_hash_name(
      Name::must_parse("*.example.com"), salt, kIterations);

  bool ce_matched = false, nc_covered = false, wc_covered = false;
  for (const auto& rr : nsec3s) {
    const auto owner_hash =
        dns::nsec3_owner_hash(rr.name, Name::must_parse("example.com"));
    ASSERT_TRUE(owner_hash);
    const auto rd = rr.as<dns::Nsec3Rdata>();
    ASSERT_TRUE(rd);
    if (std::ranges::equal(*owner_hash, ce_hash)) ce_matched = true;
    if (dns::nsec3_covers(*owner_hash, rd->next_hash, nc_hash))
      nc_covered = true;
    if (dns::nsec3_covers(*owner_hash, rd->next_hash, wc_hash))
      wc_covered = true;
  }
  EXPECT_TRUE(ce_matched);
  EXPECT_TRUE(nc_covered);
  EXPECT_TRUE(wc_covered);
}

TEST_F(ServerTest, WildcardExpansionSynthesisesOwnerAndProof) {
  const Message resp = ask(server_, "anything.wc.example.com", RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  const auto answers = resp.answers_with(RrType::kA);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers.front().name.equals(
      Name::must_parse("anything.wc.example.com")));

  // The RRSIG's labels field reveals wildcard synthesis (2 < 4 owner labels
  // ... wildcard is *.wc.example.com → labels = 3).
  bool found_sig = false;
  for (const auto& rr : resp.answers) {
    if (rr.type != RrType::kRrsig) continue;
    const auto sig = rr.as<dns::RrsigRdata>();
    ASSERT_TRUE(sig);
    EXPECT_EQ(sig->labels, 3);
    EXPECT_LT(sig->labels,
              Name::must_parse("anything.wc.example.com").label_count());
    found_sig = true;
  }
  EXPECT_TRUE(found_sig);
  // And the next-closer name must be proven nonexistent.
  EXPECT_EQ(resp.authorities_with(RrType::kNsec3).size(), 1u);
}

TEST_F(ServerTest, WildcardNodataProof) {
  const Message resp = ask(server_, "anything.wc.example.com", RrType::kTxt);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.answers.empty());
  // match(CE=wc.example.com) + cover(next closer) + match(*.wc.example.com).
  EXPECT_EQ(resp.authorities_with(RrType::kNsec3).size(), 3u);
}

TEST_F(ServerTest, SecureReferralCarriesDs) {
  const Message resp = ask(server_, "host.secure.example.com", RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_FALSE(resp.header.aa);
  EXPECT_TRUE(resp.answers.empty());
  EXPECT_GE(count_type(resp.authorities, RrType::kNs), 1u);
  EXPECT_EQ(count_type(resp.authorities, RrType::kDs), 1u);
  EXPECT_GE(count_type(resp.authorities, RrType::kRrsig), 1u);
  // Glue for the in-zone name server.
  EXPECT_EQ(count_type(resp.additionals, RrType::kA), 1u);
}

TEST_F(ServerTest, InsecureReferralProvesNoDs) {
  const Message resp = ask(server_, "host.insecure.example.com", RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_EQ(count_type(resp.authorities, RrType::kDs), 0u);
  // NSEC3 matching the cut proving DS absent.
  const auto nsec3s = resp.authorities_with(RrType::kNsec3);
  ASSERT_GE(nsec3s.size(), 1u);
  const auto rd = nsec3s.front().as<dns::Nsec3Rdata>();
  ASSERT_TRUE(rd);
  EXPECT_TRUE(rd->types.contains(RrType::kNs));
  EXPECT_FALSE(rd->types.contains(RrType::kDs));
}

TEST_F(ServerTest, DsQueryAtDelegationAnsweredByParent) {
  const Message resp = ask(server_, "secure.example.com", RrType::kDs);
  EXPECT_EQ(resp.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(resp.header.aa);
  EXPECT_EQ(resp.answers_with(RrType::kDs).size(), 1u);
}

TEST_F(ServerTest, RefusedOutsideHostedZones) {
  const Message resp = ask(server_, "www.elsewhere.net", RrType::kA);
  EXPECT_EQ(resp.header.rcode, Rcode::kRefused);
  EXPECT_FALSE(resp.header.aa);
}

TEST_F(ServerTest, DnskeyAndNsec3ParamQueriesAnswered) {
  const Message dnskey = ask(server_, "example.com", RrType::kDnskey);
  EXPECT_EQ(dnskey.answers_with(RrType::kDnskey).size(), 2u);
  const Message param = ask(server_, "example.com", RrType::kNsec3Param);
  ASSERT_EQ(param.answers_with(RrType::kNsec3Param).size(), 1u);
  const auto rd = param.answers_with(RrType::kNsec3Param).front()
                      .as<dns::Nsec3ParamRdata>();
  ASSERT_TRUE(rd);
  EXPECT_EQ(rd->iterations, kIterations);
  EXPECT_EQ(rd->salt.size(), 2u);
}

TEST_F(ServerTest, FormErrOnEmptyQuestion) {
  Message query;
  query.header.id = 9;
  const Message resp =
      server_.handle(query, simnet::IpAddress::v4(198, 51, 100, 1));
  EXPECT_EQ(resp.header.rcode, Rcode::kFormErr);
}

TEST(ServerCname, RedirectsWhenPresent) {
  auto zone = std::make_shared<Zone>(Name::must_parse("example.net"));
  zone->add(dns::make_soa(zone->apex(), 3600,
                          Name::must_parse("ns1.example.net"), 1));
  zone->add(dns::make_ns(zone->apex(), 3600,
                         Name::must_parse("ns1.example.net")));
  dns::CnameRdata cname;
  cname.target = Name::must_parse("target.example.net");
  zone->add(dns::ResourceRecord::make(Name::must_parse("alias.example.net"),
                                      RrType::kCname, 300, cname));
  zone->add(dns::make_a(Name::must_parse("target.example.net"), 300, 192, 0,
                        2, 7));
  zone::SignerConfig config;
  zone::sign_zone(*zone, config);

  AuthoritativeServer server("ns1.example.net");
  server.add_zone(zone);
  const Message resp = ask(server, "alias.example.net", RrType::kA);
  EXPECT_EQ(resp.answers_with(RrType::kCname).size(), 1u);
  EXPECT_TRUE(resp.answers_with(RrType::kA).empty());
}

TEST(ServerLazy, ProviderMaterialisesAndCaches) {
  AuthoritativeServer server("bulk-ns");
  int materialised = 0;
  server.set_lazy_provider(
      [](const Name& qname) -> std::optional<Name> {
        // Everything under .lazy belongs to a second-level zone.
        const Name suffix = Name::must_parse("lazy");
        if (!qname.is_subdomain_of(suffix) || qname.label_count() < 2)
          return std::nullopt;
        return qname.ancestor_with_labels(2);
      },
      [&materialised](const Name& apex) -> std::shared_ptr<const Zone> {
        ++materialised;
        auto zone = std::make_shared<Zone>(apex);
        zone->add(dns::make_soa(apex, 3600, Name::must_parse("bulk-ns.lazy"),
                                1));
        zone->add(dns::make_ns(apex, 3600, Name::must_parse("bulk-ns.lazy")));
        zone->add(dns::make_a(*apex.prepended("www"), 300, 192, 0, 2, 44));
        zone::SignerConfig config;
        zone::sign_zone(*zone, config);
        return zone;
      },
      /*cache_capacity=*/2);

  EXPECT_EQ(ask(server, "www.alpha.lazy", RrType::kA).header.rcode,
            Rcode::kNoError);
  EXPECT_EQ(ask(server, "www.alpha.lazy", RrType::kA).header.rcode,
            Rcode::kNoError);
  EXPECT_EQ(materialised, 1) << "second hit must come from cache";

  ask(server, "www.beta.lazy", RrType::kA);
  ask(server, "www.gamma.lazy", RrType::kA);  // evicts alpha (capacity 2)
  ask(server, "www.alpha.lazy", RrType::kA);
  EXPECT_EQ(materialised, 4);
  EXPECT_EQ(server.lazy_materialisations(), 4u);

  EXPECT_EQ(ask(server, "www.unrelated.net", RrType::kA).header.rcode,
            Rcode::kRefused);
}

}  // namespace
}  // namespace zh::server
