#include "workload/install.hpp"

#include <algorithm>

namespace zh::workload {

testbed::DomainConfig domain_config_for(const DomainProfile& profile,
                                        const EcosystemSpec& spec) {
  testbed::DomainConfig config;
  config.apex = profile.apex;
  config.dnssec = profile.dnssec;
  config.denial = profile.denial;
  config.nsec3 = profile.nsec3;
  const OperatorModel& op = spec.operators()[profile.operator_index];
  // Customer zones are served under the operator's NS names.
  const dns::Name op_apex = dns::Name::must_parse(op.name + ".net");
  config.ns_names = {*op_apex.prepended("ns1"), *op_apex.prepended("ns2")};
  return config;
}

InstalledEcosystem install_ecosystem(testbed::Internet& internet,
                                     const EcosystemSpec& spec) {
  InstalledEcosystem installed;

  // TLD census.
  for (const TldProfile& tld : spec.tlds()) {
    testbed::TldConfig config;
    if (!tld.dnssec) {
      config.dnssec = false;
    } else if (!tld.nsec3) {
      config.denial = zone::DenialMode::kNsec;
    } else {
      config.denial = zone::DenialMode::kNsec3;
      config.nsec3.iterations = tld.iterations;
      config.nsec3.opt_out = tld.opt_out;
      config.nsec3.salt.assign(tld.salt_len, 0x5a);
    }
    internet.add_tld(tld.label, config);
  }

  // Hosting operators with lazy providers.
  installed.operator_map.resize(spec.operators().size());
  for (std::size_t i = 0; i < spec.operators().size(); ++i) {
    const OperatorModel& model = spec.operators()[i];
    const std::size_t op_index = internet.add_operator(model.name);
    installed.operator_map[i] = op_index;
    testbed::OperatorHandle& handle = internet.hosting_operator(op_index);

    const simnet::IpAddress host = handle.address_v4;
    const std::size_t model_index = i;
    handle.server->set_lazy_provider(
        [&spec](const dns::Name& qname) -> std::optional<dns::Name> {
          // Synthetic domains are always <label>.<tld>: two labels.
          if (qname.label_count() < 2) return std::nullopt;
          const dns::Name apex = qname.ancestor_with_labels(2);
          if (!spec.index_of(apex)) return std::nullopt;
          return apex;
        },
        [&spec, model_index, host](const dns::Name& apex)
            -> std::shared_ptr<const zone::Zone> {
          const auto index = spec.index_of(apex);
          if (!index) return nullptr;
          const DomainProfile profile = spec.domain(*index);
          if (profile.operator_index != model_index)
            return nullptr;  // not our customer
          return testbed::Internet::materialise_zone(
              domain_config_for(profile, spec), host);
        },
        /*cache_capacity=*/256);
    // Size from the exported server.zone_* counters rather than the
    // hardcoded 256: re-sign pressure doubles the LRU up to the operator's
    // worst case — its entire customer base materialised at once. Small
    // ecosystems never grow; campaign-scale scans converge after a short
    // doubling ramp instead of re-signing every zone on every pass.
    handle.server->set_lazy_cache_adaptive(
        std::max<std::size_t>(256, spec.domain_count()));
  }

  // Delegations for the entire synthetic population.
  for (std::size_t index = 0; index < spec.domain_count(); ++index) {
    const DomainProfile profile = spec.domain(index);
    testbed::LazyDelegation delegation;
    delegation.apex = profile.apex;
    delegation.dnssec = profile.dnssec;
    delegation.operator_index =
        installed.operator_map[profile.operator_index];
    internet.add_lazy_delegation(std::move(delegation));
  }
  return installed;
}

}  // namespace zh::workload
