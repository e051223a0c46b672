// Assembly of the simulated Internet: root zone, TLDs, hosting operators,
// registered-domain zones (eager or lazily materialised), and the paper's
// rfc9276-in-the-wild.com probe infrastructure (§4.2).
//
// Usage: declare TLDs / operators / domains, call build(), then attach
// resolvers and run measurements. Everything is deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "simnet/network.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace zh::testbed {

/// Declarative TLD configuration.
struct TldConfig {
  zone::DenialMode denial = zone::DenialMode::kNsec3;
  zone::Nsec3Params nsec3 = {.iterations = 0, .salt = {}, .opt_out = true};
  bool dnssec = true;
};

/// Declarative registered-domain (or deeper) zone configuration.
struct DomainConfig {
  dns::Name apex;
  zone::DenialMode denial = zone::DenialMode::kNsec3;
  zone::Nsec3Params nsec3;
  bool dnssec = true;

  /// Adds `www` + apex A records and a `*.wc` wildcard A record.
  bool standard_records = true;

  /// Extra records beyond the standard set.
  std::vector<dns::ResourceRecord> extra_records;

  /// NS names for the delegation; empty → ns1.<apex> with glue.
  std::vector<dns::Name> ns_names;

  /// Signature validity overrides (the `expired` / `it-2501-expired` zones).
  std::optional<std::uint32_t> rrsig_expiration;
  std::optional<std::uint32_t> nsec3_rrsig_expiration;

  /// Overrides the algorithm number in the parent-side DS record — models a
  /// zone signed with an algorithm the resolver does not implement
  /// (RFC 4035 §5.2: such zones are treated as insecure, not bogus).
  std::optional<std::uint8_t> ds_algorithm_override;

  /// Server hosting this zone; unset → the shared hosting server.
  std::optional<simnet::IpAddress> host;
};

/// A hosting operator (Table 2 row): an authoritative server with its own
/// name-server names, capable of lazy zone materialisation.
struct OperatorHandle {
  std::string name;
  simnet::IpAddress address_v4;
  simnet::IpAddress address_v6;
  std::vector<dns::Name> ns_names;
  server::AuthoritativeServer* server = nullptr;  // owned by Internet
  /// Service-queue profile of this operator's PoP (both addresses). Unset →
  /// the network default; resolver profiles carry the analogous override.
  std::optional<simtime::QueueModel> queue;
};

/// Lazily-hosted delegation: appears in its TLD, materialises on query.
struct LazyDelegation {
  dns::Name apex;
  bool dnssec = true;
  std::size_t operator_index = 0;  // into Internet's operator list
};

class Internet {
 public:
  Internet();

  simnet::Network& network() noexcept { return network_; }
  const std::vector<simnet::IpAddress>& root_servers() const noexcept {
    return root_server_addresses_;
  }
  resolver::TrustAnchor trust_anchor() const { return trust_anchor_; }

  /// Declares a TLD (before build()).
  void add_tld(const std::string& label, const TldConfig& config);

  /// Declares an eagerly built zone (before build()).
  void add_domain(DomainConfig config);

  /// Creates a hosting operator; its lazy provider may be installed on the
  /// returned server. Returns the operator index.
  std::size_t add_operator(const std::string& name);
  OperatorHandle& hosting_operator(std::size_t index) {
    return operators_[index];
  }
  std::size_t operator_count() const noexcept { return operators_.size(); }

  /// Declares a lazily-hosted delegation (before build()).
  void add_lazy_delegation(LazyDelegation delegation);

  /// Gives one operator's PoP its own service-queue profile (see
  /// simtime/queue.hpp). Usable before build() — applied during build — or
  /// after, taking effect immediately; this is the authoritative-side
  /// counterpart of ResolverProfile::queue.
  void set_operator_queue(std::size_t index, simtime::QueueModel model);

  /// Builds and signs everything bottom-up and attaches all servers.
  void build();

  /// Access to a built eager zone (nullptr before build / unknown apex).
  std::shared_ptr<const zone::Zone> zone(const dns::Name& apex) const;

  /// Creates (and attaches) a resolver with the given profile.
  std::unique_ptr<resolver::RecursiveResolver> make_resolver(
      const resolver::ResolverProfile& profile,
      const simnet::IpAddress& address);

  /// The shared hosting server for eager domains.
  const simnet::IpAddress& shared_host_v4() const noexcept {
    return shared_host_v4_;
  }

  /// Builds a ready-to-serve zone from a DomainConfig, signed unless the
  /// config says otherwise and frozen either way — also used by lazy
  /// providers so lazily materialised zones are identical to eager ones.
  /// `host` decides which address the default ns glue points at.
  static std::shared_ptr<const zone::Zone> materialise_zone(
      const DomainConfig& config, const simnet::IpAddress& host);

 private:
  struct TldDecl {
    std::string label;
    TldConfig config;
  };

  simnet::Network network_;
  std::vector<simnet::IpAddress> root_server_addresses_;
  resolver::TrustAnchor trust_anchor_;

  std::vector<TldDecl> tlds_;
  std::vector<DomainConfig> domains_;
  std::vector<OperatorHandle> operators_;
  std::vector<std::unique_ptr<server::AuthoritativeServer>> servers_;
  std::vector<LazyDelegation> lazy_;

  std::unordered_map<dns::Name, std::shared_ptr<const zone::Zone>,
                     dns::NameHash>
      built_zones_;

  simnet::IpAddress shared_host_v4_;
  simnet::IpAddress shared_host_v6_;
  bool built_ = false;
  std::uint32_t next_address_index_ = 100;
};

// --- Probe infrastructure (§4.2) ---

/// One of the 50 probe subzones under rfc9276-in-the-wild.com.
struct ProbeZone {
  std::string label;            // "valid", "expired", "it-N", ...
  dns::Name apex;
  std::uint16_t iterations = 0;
  bool expired = false;         // all signatures expired
  bool nsec3_expired = false;   // only NSEC3 signatures expired (Item 7 probe)
};

/// The paper's probe set: valid, expired, it-1..it-25, it-50..it-500 step 25,
/// it-51, it-101, it-151 (49 zones) plus it-2501-expired.
std::vector<ProbeZone> probe_zone_specs();

/// Declares com, rfc9276-in-the-wild.com and all probe subzones on an
/// Internet under construction. Call before build().
std::vector<ProbeZone> add_probe_infrastructure(Internet& internet);

}  // namespace zh::testbed
