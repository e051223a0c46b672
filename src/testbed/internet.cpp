#include "testbed/internet.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace zh::testbed {
namespace {

using dns::Name;
using dns::ResourceRecord;
using dns::RrType;
using simnet::IpAddress;
using zone::Zone;

constexpr std::uint32_t kExpiredDelta = 86400;  // expired zones: 1 day past

}  // namespace

Internet::Internet() {
  root_server_addresses_ = {IpAddress::v4(198, 41, 0, 4),
                            IpAddress::v6({0x2001, 0x503, 0xba3e, 0, 0, 0, 2,
                                           0x30})};
  shared_host_v4_ = IpAddress::v4(192, 0, 2, 2);
  shared_host_v6_ = IpAddress::v6({0x2001, 0xdb8, 0xcafe, 0, 0, 0, 0, 2});
}

void Internet::add_tld(const std::string& label, const TldConfig& config) {
  for (const auto& tld : tlds_)
    if (tld.label == label) return;  // idempotent
  tlds_.push_back(TldDecl{label, config});
}

void Internet::add_domain(DomainConfig config) {
  domains_.push_back(std::move(config));
}

std::size_t Internet::add_operator(const std::string& name) {
  OperatorHandle handle;
  handle.name = name;
  handle.address_v4 = IpAddress::from_index(false, next_address_index_);
  handle.address_v6 = IpAddress::from_index(true, next_address_index_);
  ++next_address_index_;

  add_tld("net", TldConfig{});
  const Name apex = Name::must_parse(name + ".net");
  handle.ns_names = {*apex.prepended("ns1"), *apex.prepended("ns2")};

  DomainConfig own;
  own.apex = apex;
  own.dnssec = true;
  own.nsec3 = {.iterations = 0, .salt = {}, .opt_out = false};
  own.host = handle.address_v4;
  own.ns_names = handle.ns_names;  // self-hosted
  // ns1/ns2 address records inside the operator's own zone must resolve to
  // the operator's server: glueless delegations depend on them.
  for (const auto& ns : handle.ns_names) {
    dns::ARdata a;
    std::copy_n(handle.address_v4.raw().begin(), 4, a.address.begin());
    own.extra_records.push_back(ResourceRecord::make(ns, RrType::kA, 3600, a));
  }
  add_domain(own);

  auto server = std::make_unique<server::AuthoritativeServer>(name);
  handle.server = server.get();
  servers_.push_back(std::move(server));
  operators_.push_back(handle);
  return operators_.size() - 1;
}

void Internet::add_lazy_delegation(LazyDelegation delegation) {
  lazy_.push_back(std::move(delegation));
}

std::shared_ptr<const Zone> Internet::materialise_zone(
    const DomainConfig& config, const IpAddress& host) {
  auto zone = std::make_shared<Zone>(config.apex);
  const Name apex = config.apex;

  std::vector<Name> ns_names = config.ns_names;
  if (ns_names.empty()) ns_names.push_back(*apex.prepended("ns1"));

  zone->add(dns::make_soa(apex, 3600, ns_names.front(), 2024031501));
  for (const auto& ns : ns_names)
    zone->add(dns::make_ns(apex, 3600, ns));
  // In-bailiwick name servers get address records pointing at the host, so
  // glueless referrals resolve back to the right server.
  for (const auto& ns : ns_names) {
    if (!ns.is_subdomain_of(apex) || host.is_v6()) continue;
    dns::ARdata a;
    std::copy_n(host.raw().begin(), 4, a.address.begin());
    zone->add(ResourceRecord::make(ns, RrType::kA, 3600, a));
  }

  if (config.standard_records) {
    zone->add(dns::make_a(apex, 300, 192, 0, 2, 10));
    zone->add(dns::make_a(*apex.prepended("www"), 300, 192, 0, 2, 11));
    // Wildcard branch: *.wc.<apex> (kept off the apex so that probes under
    // a sibling branch still yield NXDOMAIN — DESIGN.md §4).
    const auto wc = apex.prepended("wc");
    zone->add(dns::make_a(wc->wildcard_child(), 300, 192, 0, 2, 12));
  }
  for (const auto& rr : config.extra_records) zone->add(rr);

  if (config.dnssec) {
    zone::SignerConfig signer;
    signer.denial = config.denial;
    signer.nsec3 = config.nsec3;
    if (config.rrsig_expiration) signer.expiration = *config.rrsig_expiration;
    signer.nsec3_rrsig_expiration = config.nsec3_rrsig_expiration;
    zone::sign_zone(*zone, signer);
  }
  zone->freeze();
  return zone;
}

void Internet::build() {
  assert(!built_);
  built_ = true;

  // --- Unsigned skeletons for root + TLDs ---
  auto root_zone = std::make_shared<Zone>(Name::root());
  const Name root_ns = Name::must_parse("a.root-servers");
  root_zone->add(dns::make_soa(Name::root(), 86400, root_ns, 2024031501));
  root_zone->add(dns::make_ns(Name::root(), 86400, root_ns));
  root_zone->add(dns::make_a(root_ns, 86400, 198, 41, 0, 4));

  struct TldBuild {
    TldDecl decl;
    Name apex;
    std::shared_ptr<Zone> zone;
    IpAddress address_v4;
    IpAddress address_v6;
  };
  std::vector<TldBuild> tld_builds;
  for (const auto& decl : tlds_) {
    TldBuild build;
    build.decl = decl;
    build.apex = Name::must_parse(decl.label);
    build.zone = std::make_shared<Zone>(build.apex);
    build.address_v4 = IpAddress::from_index(false, next_address_index_);
    build.address_v6 = IpAddress::from_index(true, next_address_index_);
    ++next_address_index_;
    const Name tld_ns = *build.apex.prepended("ns1");
    build.zone->add(dns::make_soa(build.apex, 86400, tld_ns, 2024031501));
    build.zone->add(dns::make_ns(build.apex, 86400, tld_ns));
    {
      dns::ARdata a;
      a.address = {10, 0, 0, 53};
      build.zone->add(ResourceRecord::make(tld_ns, RrType::kA, 86400, a));
    }
    tld_builds.push_back(std::move(build));
  }

  // --- Delegation wiring ---
  // Parents must exist before children: process eager domains shallow-first.
  std::stable_sort(domains_.begin(), domains_.end(),
                   [](const DomainConfig& a, const DomainConfig& b) {
                     return a.apex.label_count() < b.apex.label_count();
                   });

  // Unsigned skeletons for eager domains (children need to be delegated
  // from parents before signing).
  std::vector<std::shared_ptr<Zone>> domain_zones;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const DomainConfig& config = domains_[i];
    const IpAddress host = config.host.value_or(shared_host_v4_);
    // Build unsigned first; sign after children are known.
    DomainConfig unsigned_config = config;
    unsigned_config.dnssec = false;
    domain_zones.push_back(
        std::const_pointer_cast<Zone>(materialise_zone(unsigned_config, host)));
  }

  // Parent index: eager and TLD apexes by name, so finding a parent costs
  // one hash lookup per proper ancestor of the child instead of a scan over
  // every apex. The first entry for a name wins, as the scan's did: the
  // earliest in the sorted eager list, the earliest declared TLD.
  std::unordered_map<Name, std::size_t, dns::NameHash> eager_index;
  for (std::size_t i = 0; i < domains_.size(); ++i)
    eager_index.try_emplace(domains_[i].apex, i);
  std::unordered_map<Name, std::size_t, dns::NameHash> tld_index;
  for (std::size_t i = 0; i < tld_builds.size(); ++i)
    tld_index.try_emplace(tld_builds[i].apex, i);

  // Finds the enclosing parent zone of `apex`: the deepest eager domain
  // above it, else the earliest declared TLD above it, else the root.
  const auto parent_zone_of = [&](const Name& apex) -> Zone* {
    for (std::size_t labels = apex.label_count(); labels-- > 1;) {
      const auto it = eager_index.find(apex.ancestor_with_labels(labels));
      if (it != eager_index.end()) return domain_zones[it->second].get();
    }
    std::size_t tld = tld_builds.size();
    for (std::size_t labels = apex.label_count(); labels-- > 0;) {
      const auto it = tld_index.find(apex.ancestor_with_labels(labels));
      if (it != tld_index.end()) tld = std::min(tld, it->second);
    }
    return tld < tld_builds.size() ? tld_builds[tld].zone.get()
                                   : root_zone.get();
  };

  const auto delegate = [&](Zone* parent, const Name& child_apex,
                            const std::vector<Name>& ns_names, bool dnssec,
                            const IpAddress& host,
                            std::optional<std::uint8_t> ds_algorithm = {}) {
    std::vector<Name> names = ns_names;
    if (names.empty()) names.push_back(*child_apex.prepended("ns1"));
    for (const auto& ns : names) {
      parent->add(dns::make_ns(child_apex, 86400, ns));
      if (ns.is_subdomain_of(child_apex) && !host.is_v6()) {
        // In-bailiwick: parent needs glue. Its address is the child's host.
        dns::ARdata a;
        std::copy_n(host.raw().begin(), 4, a.address.begin());
        parent->add(ResourceRecord::make(ns, RrType::kA, 86400, a));
      }
    }
    if (dnssec) {
      const auto ksk = zone::derive_dnskey(child_apex.to_string(), true);
      dns::DsRdata ds = dns::make_ds(child_apex, ksk);
      if (ds_algorithm) ds.algorithm = *ds_algorithm;
      parent->add(ResourceRecord::make(child_apex, RrType::kDs, 86400, ds));
    }
  };

  // Eager domains into their parents.
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const DomainConfig& config = domains_[i];
    Zone* parent = parent_zone_of(config.apex);
    delegate(parent, config.apex, config.ns_names, config.dnssec,
             config.host.value_or(shared_host_v4_),
             config.ds_algorithm_override);
  }
  // Lazy delegations into their parents (always TLDs in practice).
  for (const auto& lazy : lazy_) {
    Zone* parent = parent_zone_of(lazy.apex);
    const OperatorHandle& op = operators_.at(lazy.operator_index);
    delegate(parent, lazy.apex, op.ns_names, lazy.dnssec, op.address_v4);
  }
  // TLDs into the root.
  for (const auto& tld : tld_builds) {
    root_zone->add(dns::make_ns(tld.apex, 86400, *tld.apex.prepended("ns1")));
    {
      dns::ARdata a;
      std::copy_n(tld.address_v4.raw().begin(), 4, a.address.begin());
      root_zone->add(ResourceRecord::make(*tld.apex.prepended("ns1"),
                                          RrType::kA, 86400, a));
    }
    if (tld.decl.config.dnssec) {
      const auto ksk = zone::derive_dnskey(tld.apex.to_string(), true);
      root_zone->add(ResourceRecord::make(tld.apex, RrType::kDs, 86400,
                                          dns::make_ds(tld.apex, ksk)));
    }
  }

  // --- Sign bottom-up (order does not matter: DS is derived from seeds) ---
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const DomainConfig& config = domains_[i];
    if (!config.dnssec) continue;
    zone::SignerConfig signer;
    signer.denial = config.denial;
    signer.nsec3 = config.nsec3;
    if (config.rrsig_expiration) signer.expiration = *config.rrsig_expiration;
    signer.nsec3_rrsig_expiration = config.nsec3_rrsig_expiration;
    zone::sign_zone(*domain_zones[i], signer);
  }
  for (auto& tld : tld_builds) {
    if (!tld.decl.config.dnssec) continue;
    zone::SignerConfig signer;
    signer.denial = tld.decl.config.denial;
    signer.nsec3 = tld.decl.config.nsec3;
    zone::sign_zone(*tld.zone, signer);
  }
  {
    zone::SignerConfig signer;
    signer.denial = zone::DenialMode::kNsec;  // the real root uses NSEC
    const auto result = zone::sign_zone(*root_zone, signer);
    trust_anchor_.root_ds = result.ds;
  }

  // Unsigned zones were never frozen by the signer; servers read frozen
  // zones only.
  root_zone->freeze();
  for (auto& tld : tld_builds) tld.zone->freeze();
  for (auto& domain_zone : domain_zones) domain_zone->freeze();

  // --- Hosting ---
  auto root_server = std::make_unique<server::AuthoritativeServer>("root");
  root_server->add_zone(root_zone);
  built_zones_[Name::root()] = root_zone;
  for (const auto& addr : root_server_addresses_) {
    server::AuthoritativeServer* srv = root_server.get();
    network_.attach(addr, [srv](const dns::Message& query,
                                const IpAddress& source) {
      return std::optional<dns::Message>(srv->handle(query, source));
    });
  }
  servers_.push_back(std::move(root_server));

  for (auto& tld : tld_builds) {
    auto srv = std::make_unique<server::AuthoritativeServer>("tld-" +
                                                             tld.decl.label);
    srv->add_zone(tld.zone);
    built_zones_[tld.apex] = tld.zone;
    server::AuthoritativeServer* raw = srv.get();
    const auto handler = [raw](const dns::Message& query,
                               const IpAddress& source) {
      return std::optional<dns::Message>(raw->handle(query, source));
    };
    network_.attach(tld.address_v4, handler);
    network_.attach(tld.address_v6, handler);
    servers_.push_back(std::move(srv));
  }

  // Shared hosting server + per-operator servers.
  auto shared = std::make_unique<server::AuthoritativeServer>("shared-host");
  server::AuthoritativeServer* shared_raw = shared.get();
  servers_.push_back(std::move(shared));

  std::unordered_map<IpAddress, server::AuthoritativeServer*,
                     simnet::IpAddressHash>
      by_address;
  by_address[shared_host_v4_] = shared_raw;
  by_address[shared_host_v6_] = shared_raw;
  for (auto& op : operators_) {
    by_address[op.address_v4] = op.server;
    by_address[op.address_v6] = op.server;
  }

  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const IpAddress host = domains_[i].host.value_or(shared_host_v4_);
    auto it = by_address.find(host);
    if (it == by_address.end()) {
      // A dedicated hosting server the caller addressed by IP only.
      auto srv = std::make_unique<server::AuthoritativeServer>(
          "host-" + host.to_string());
      it = by_address.emplace(host, srv.get()).first;
      servers_.push_back(std::move(srv));
    }
    it->second->add_zone(domain_zones[i]);
    built_zones_[domains_[i].apex] = domain_zones[i];
  }

  for (const auto& [addr, srv] : by_address) {
    server::AuthoritativeServer* raw = srv;
    network_.attach(addr, [raw](const dns::Message& query,
                                const IpAddress& source) {
      return std::optional<dns::Message>(raw->handle(query, source));
    });
  }
  // The shared host answers on v6 via the same node handler already.

  // Every authoritative server reports into the network's tracer (zone-LRU
  // metrics + materialisation spans).
  for (const auto& srv : servers_) srv->set_tracer(&network_.tracer());

  // Operator PoPs with their own queue profile (set before build()).
  for (const auto& op : operators_) {
    if (!op.queue) continue;
    network_.set_queue(op.address_v4, *op.queue);
    network_.set_queue(op.address_v6, *op.queue);
  }
}

void Internet::set_operator_queue(std::size_t index,
                                  simtime::QueueModel model) {
  OperatorHandle& op = operators_.at(index);
  op.queue = model;
  if (built_) {
    network_.set_queue(op.address_v4, model);
    network_.set_queue(op.address_v6, model);
  }
}

std::shared_ptr<const Zone> Internet::zone(const Name& apex) const {
  const auto it = built_zones_.find(apex);
  return it == built_zones_.end() ? nullptr : it->second;
}

std::unique_ptr<resolver::RecursiveResolver> Internet::make_resolver(
    const resolver::ResolverProfile& profile, const IpAddress& address) {
  resolver::RecursiveResolver::Config config;
  config.address = address;
  config.profile = profile;
  config.trust_anchor = trust_anchor_;
  auto r = std::make_unique<resolver::RecursiveResolver>(
      network_, std::move(config), root_server_addresses_);
  r->attach();
  if (profile.queue) network_.set_queue(address, *profile.queue);
  return r;
}

std::vector<ProbeZone> probe_zone_specs() {
  std::vector<ProbeZone> specs;
  const Name parent = Name::must_parse("rfc9276-in-the-wild.com");
  const auto add = [&](std::string label, std::uint16_t iterations,
                       bool expired, bool nsec3_expired) {
    ProbeZone spec;
    spec.label = label;
    spec.apex = *parent.prepended(label);
    spec.iterations = iterations;
    spec.expired = expired;
    spec.nsec3_expired = nsec3_expired;
    specs.push_back(std::move(spec));
  };

  add("valid", 0, false, false);
  add("expired", 0, true, false);
  for (std::uint16_t n = 1; n <= 25; ++n)
    add("it-" + std::to_string(n), n, false, false);
  for (std::uint16_t n = 50; n <= 500; n = static_cast<std::uint16_t>(n + 25))
    add("it-" + std::to_string(n), n, false, false);
  for (const int n : {51, 101, 151})
    add("it-" + std::to_string(n), static_cast<std::uint16_t>(n), false,
        false);
  add("it-2501-expired", 2501, false, true);
  return specs;
}

std::vector<ProbeZone> add_probe_infrastructure(Internet& internet) {
  internet.add_tld("com", TldConfig{});

  DomainConfig parent;
  parent.apex = Name::must_parse("rfc9276-in-the-wild.com");
  parent.nsec3 = {.iterations = 0, .salt = {}, .opt_out = false};
  internet.add_domain(parent);

  // Subzones live on their own server so the delegation from the parent is
  // exercised — a resolver must descend the chain of trust into each it-N
  // zone exactly as it did on the real rfc9276-in-the-wild.com.
  const IpAddress probe_host = IpAddress::v4(192, 0, 2, 3);

  const auto specs = probe_zone_specs();
  for (const auto& spec : specs) {
    DomainConfig config;
    config.apex = spec.apex;
    config.host = probe_host;
    config.nsec3 = {.iterations = spec.iterations, .salt = {},
                    .opt_out = false};
    if (spec.expired)
      config.rrsig_expiration = zone::kSimNow - kExpiredDelta;
    if (spec.nsec3_expired)
      config.nsec3_rrsig_expiration = zone::kSimNow - kExpiredDelta;
    internet.add_domain(config);
  }
  return specs;
}

}  // namespace zh::testbed
