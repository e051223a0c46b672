// Example: a dig-style CLI against the simulated Internet.
//
//   $ ./dig <qname> [qtype] [profile] [+cd]
//   $ ./dig x.nx.it-200.rfc9276-in-the-wild.com A cloudflare
//   $ ./dig it-17.rfc9276-in-the-wild.com NSEC3PARAM
//   $ ./dig d300.com DNSKEY google +cd
//
// Builds the probe infrastructure plus a small synthetic population, then
// issues the query through the chosen resolver profile and pretty-prints
// the response dig-style (flags, EDE, answer/authority sections). An
// unknown type or profile prints the usage and exits 2.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dns/types.hpp"
#include "workload/install.hpp"

using namespace zh;

namespace {

/// The named vendor profile, or nullopt for an unknown name.
std::optional<resolver::ResolverProfile> parse_profile(
    const std::string& text) {
  using P = resolver::ResolverProfile;
  if (text == "bind9" || text == "bind9-2021") return P::bind9_2021();
  if (text == "bind9-2023") return P::bind9_2023();
  if (text == "unbound") return P::unbound();
  if (text == "knot") return P::knot_2023();
  if (text == "google") return P::google_public_dns();
  if (text == "cloudflare") return P::cloudflare();
  if (text == "quad9") return P::quad9();
  if (text == "opendns") return P::opendns();
  if (text == "technitium") return P::technitium();
  if (text == "strict") return P::strict_zero();
  if (text == "permissive") return P::permissive();
  if (text == "plain") return P::non_validating();
  return std::nullopt;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <qname> [qtype] [profile] [+cd]\n"
               "profiles: bind9 bind9-2023 unbound knot google cloudflare "
               "quad9 opendns technitium strict permissive plain\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional arguments, with +cd accepted anywhere.
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto plus_cd = std::remove(args.begin(), args.end(), "+cd");
  const bool cd = plus_cd != args.end();
  args.erase(plus_cd, args.end());
  if (args.empty()) return usage(argv[0]);
  const auto qname = dns::Name::parse(args[0]);
  if (!qname) {
    std::fprintf(stderr, "invalid name: %s\n", args[0].c_str());
    return 2;
  }
  const auto qtype =
      dns::rr_type_from_string(args.size() > 1 ? args[1] : "A");
  if (!qtype) {
    std::fprintf(stderr, "unknown type: %s\n", args[1].c_str());
    return usage(argv[0]);
  }
  const auto profile = parse_profile(args.size() > 2 ? args[2] : "bind9");
  if (!profile) {
    std::fprintf(stderr, "unknown profile: %s\n", args[2].c_str());
    return usage(argv[0]);
  }

  // A compact world: the probe zones plus a 1:50000 population.
  workload::EcosystemSpec spec({.scale = 0.00002, .seed = 42});
  testbed::Internet internet;
  testbed::add_probe_infrastructure(internet);
  workload::install_ecosystem(internet, spec);
  internet.build();

  auto resolver =
      internet.make_resolver(*profile, simnet::IpAddress::v4(203, 0, 113, 1));

  dns::Message query = dns::Message::make_query(42, *qname, *qtype,
                                                /*dnssec_ok=*/true);
  query.header.cd = cd;
  const dns::Message response =
      resolver->handle(query, simnet::IpAddress::v4(203, 0, 113, 2));

  std::printf(";; using profile %s%s\n", profile->name.c_str(),
              cd ? " (+cd)" : "");
  std::printf(";; ->>HEADER<<- rcode: %s, id: %u\n",
              dns::to_string(response.header.rcode).c_str(),
              response.header.id);
  std::string flags = "qr";
  if (response.header.aa) flags += " aa";
  if (response.header.rd) flags += " rd";
  if (response.header.ra) flags += " ra";
  if (response.header.ad) flags += " ad";
  if (response.header.cd) flags += " cd";
  std::printf(";; flags: %s; ANSWER: %zu, AUTHORITY: %zu\n", flags.c_str(),
              response.answers.size(), response.authorities.size());
  if (response.edns) {
    if (const auto ede = response.edns->ede()) {
      std::printf(";; EDE: %u (%s)%s%s\n",
                  static_cast<unsigned>(ede->info_code),
                  dns::to_string(ede->info_code).c_str(),
                  ede->extra_text.empty() ? "" : ": ",
                  ede->extra_text.c_str());
    }
  }
  if (!response.answers.empty()) {
    std::printf("\n;; ANSWER SECTION:\n");
    for (const auto& rr : response.answers)
      std::printf("%s\n", rr.to_string().c_str());
  }
  if (!response.authorities.empty()) {
    std::printf("\n;; AUTHORITY SECTION:\n");
    for (const auto& rr : response.authorities)
      std::printf("%s\n", rr.to_string().c_str());
  }
  std::printf("\n;; resolver spent %llu SHA-1 blocks validating this query\n",
              static_cast<unsigned long long>(
                  resolver->stats().last_query_sha1_blocks));
  return 0;
}
