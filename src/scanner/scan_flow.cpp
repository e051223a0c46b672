#include "scanner/scan_flow.hpp"

#include <algorithm>
#include <cstdio>

namespace zh::scanner {
namespace {

using dns::Name;
using dns::Rcode;
using dns::RrType;

}  // namespace

DomainScanFlow::DomainScanFlow(Name apex, ProbeTokenSource token_source)
    : apex_(std::move(apex)), token_source_(std::move(token_source)) {
  result_.apex = apex_;
  done_ = false;
  step_ = Step::kDnskey;
  pending_ = FlowQuery{apex_, RrType::kDnskey, /*cd=*/true};
}

void DomainScanFlow::feed(const FlowOutcome& outcome) {
  switch (step_) {
    case Step::kDnskey: {
      // 1. DNSKEY.
      if (!outcome.response) {
        result_.timed_out = outcome.timed_out;
        finish();  // kUnresponsive
        return;
      }
      result_.dnskey =
          !outcome.response->answers_with(RrType::kDnskey).empty();
      if (!result_.dnskey) {
        result_.classification = DomainScanResult::Class::kNoDnssec;
        finish();
        return;
      }
      step_ = Step::kNsec3Param;
      pending_ = FlowQuery{apex_, RrType::kNsec3Param, /*cd=*/true};
      return;
    }
    case Step::kNsec3Param: {
      // 2. NSEC3PARAM + NS.
      if (outcome.response) {
        const auto params =
            outcome.response->answers_with(RrType::kNsec3Param);
        result_.nsec3param_count = params.size();
        if (result_.nsec3param_count == 1) {
          result_.nsec3param = params.front().as<dns::Nsec3ParamRdata>();
        }
      }
      step_ = Step::kNs;
      pending_ = FlowQuery{apex_, RrType::kNs, /*cd=*/true};
      return;
    }
    case Step::kNs: {
      if (outcome.response) {
        for (const auto& rr :
             outcome.response->answers_with(RrType::kNs)) {
          if (const auto ns = rr.as<dns::NsRdata>())
            result_.ns_names.push_back(ns->nsdname);
        }
      }
      // 3. Negative probe: a random subdomain triggers either an NXDOMAIN
      //    or a wildcard expansion — both carry NSEC3 records when the zone
      //    has them. Fixed-width token: NSEC3 hashing cost depends on the
      //    name's length, so a padded counter keeps per-scan service time
      //    independent of how many scans ran before (a worker-count and
      //    window invariance requirement).
      char token[24];
      std::snprintf(token, sizeof token, "zz-scan-%08llu",
                    static_cast<unsigned long long>(token_source_()));
      step_ = Step::kNegativeProbe;
      pending_ = FlowQuery{*apex_.prepended(token), RrType::kA, /*cd=*/true};
      return;
    }
    case Step::kNegativeProbe: {
      if (outcome.response) {
        const auto& negative = *outcome.response;
        Nsec3Observation observation;
        bool first = true;
        std::size_t nsec3_records = 0;
        for (const auto& section : {negative.authorities, negative.answers}) {
          for (const auto& rr : section) {
            if (rr.type == RrType::kNsec) result_.nsec_seen = true;
            if (rr.type != RrType::kNsec3) continue;
            const auto rdata = rr.as<dns::Nsec3Rdata>();
            if (!rdata) continue;
            ++nsec3_records;
            if (first) {
              observation.iterations = rdata->iterations;
              observation.salt = rdata->salt;
              first = false;
            } else if (rdata->iterations != observation.iterations ||
                       rdata->salt != observation.salt) {
              observation.records_consistent = false;  // RFC 5155 violation
            }
            if (rdata->opt_out()) observation.opt_out = true;
          }
        }
        if (nsec3_records > 0) {
          if (result_.nsec3param) {
            observation.matches_nsec3param =
                result_.nsec3param->iterations == observation.iterations &&
                result_.nsec3param->salt == observation.salt;
          }
          result_.nsec3 = std::move(observation);
        }
      }

      // 4. Classification per §4.1.
      if (result_.nsec3param_count > 1) {
        result_.classification = DomainScanResult::Class::kExcluded;
      } else if (result_.nsec3param_count == 1 && result_.nsec3 &&
                 result_.nsec3->records_consistent &&
                 result_.nsec3->matches_nsec3param) {
        result_.classification = DomainScanResult::Class::kNsec3Enabled;
      } else if (result_.nsec3param_count == 1 || result_.nsec3) {
        // NSEC3 machinery present but inconsistent / half-visible.
        result_.classification = DomainScanResult::Class::kExcluded;
      } else {
        result_.classification = DomainScanResult::Class::kDnssecNoNsec3;
      }
      finish();
      return;
    }
  }
}

ProbeFlow::ProbeFlow(const std::vector<testbed::ProbeZone>* specs,
                     std::string token)
    : token_(std::move(token)) {
  for (const auto& spec : *specs) {
    if (spec.label == "valid") valid_ = &spec;
    else if (spec.label == "expired") expired_ = &spec;
    else if (spec.label == "it-2501-expired") item7_ = &spec;
    else its_.push_back(&spec);
  }
  std::sort(its_.begin(), its_.end(),
            [](const testbed::ProbeZone* a, const testbed::ProbeZone* b) {
              return a->iterations < b->iterations;
            });
  done_ = false;
  enter_valid();
}

Name ProbeFlow::name_in(const testbed::ProbeZone& spec, bool wildcard) const {
  // <token>.wc.<zone> hits the wildcard (NOERROR path);
  // <token>.nx.<zone> elicits NXDOMAIN (DESIGN.md §4).
  const auto branch = spec.apex.prepended(wildcard ? "wc" : "nx");
  return *branch->prepended(token_);
}

ZoneObservation ProbeFlow::to_observation(const FlowOutcome& outcome) {
  ZoneObservation observation;
  observation.attempts = outcome.attempts;
  observation.latency = outcome.latency;
  observation.timed_out = outcome.timed_out;
  const auto& response = outcome.response;
  if (!response) return observation;
  observation.responsive = true;
  observation.rcode = response->header.rcode;
  observation.ad = response->header.ad;
  observation.ra = response->header.ra;
  if (response->edns) {
    if (const auto ede = response->edns->ede()) {
      observation.ede = ede->info_code;
      observation.ede_text = ede->extra_text;
    }
  }
  return observation;
}

void ProbeFlow::feed(const FlowOutcome& outcome) {
  const ZoneObservation observation = to_observation(outcome);
  switch (stage_) {
    case Stage::kValid:
      result_.valid_zone = observation;
      enter_expired();
      return;
    case Stage::kExpired:
      result_.expired_zone = observation;
      enter_sweep();
      return;
    case Stage::kSweep:
      record_sweep(*its_[sweep_index_], observation);
      ++sweep_index_;
      enter_sweep_step();
      return;
    case Stage::kItem7:
      // Item 7: a validator that returns insecure responses above a limit
      // must still SERVFAIL it-2501-expired (expired NSEC3 signatures).
      result_.item7_zone = observation;
      result_.item7_violation = observation.rcode == Rcode::kNxDomain;
      finish();
      return;
  }
}

void ProbeFlow::enter_valid() {
  stage_ = Stage::kValid;
  if (valid_) {
    pending_ = FlowQuery{name_in(*valid_, true), RrType::kA, /*cd=*/false};
    return;
  }
  enter_expired();
}

void ProbeFlow::enter_expired() {
  stage_ = Stage::kExpired;
  if (expired_) {
    pending_ = FlowQuery{name_in(*expired_, true), RrType::kA, /*cd=*/false};
    return;
  }
  enter_sweep();
}

void ProbeFlow::enter_sweep() {
  // Validator detection (§4.2): NOERROR+AD for valid, SERVFAIL for expired.
  result_.responsive = result_.valid_zone.responsive;
  result_.timed_out = result_.valid_zone.timed_out;
  result_.validator = result_.valid_zone.responsive &&
                      result_.valid_zone.rcode == Rcode::kNoError &&
                      result_.valid_zone.ad &&
                      result_.expired_zone.rcode == Rcode::kServFail;
  if (!result_.validator) {
    finish();
    return;
  }
  stage_ = Stage::kSweep;
  sweep_index_ = 0;
  enter_sweep_step();
}

void ProbeFlow::enter_sweep_step() {
  if (sweep_index_ < its_.size()) {
    pending_ = FlowQuery{name_in(*its_[sweep_index_], false), RrType::kA,
                         /*cd=*/false};
    return;
  }
  infer_limits();
  if (result_.implements_item6 && item7_) {
    stage_ = Stage::kItem7;
    pending_ = FlowQuery{name_in(*item7_, false), RrType::kA, /*cd=*/false};
    return;
  }
  finish();
}

void ProbeFlow::record_sweep(const testbed::ProbeZone& spec,
                             const ZoneObservation& observation) {
  result_.sweep.emplace(spec.iterations, observation);

  if (!observation.responsive) {
    // No answer is not an RCODE: record the "stop answering" onset
    // instead of letting the default SERVFAIL pollute the inference.
    if (observation.timed_out && !result_.first_timeout)
      result_.first_timeout = spec.iterations;
    return;
  }
  if (observation.rcode == Rcode::kServFail) {
    if (!result_.first_servfail) {
      result_.first_servfail = spec.iterations;
      if (observation.ede) result_.limit_ede = observation.ede;
    }
  } else if (observation.rcode == Rcode::kNxDomain) {
    if (observation.ad) {
      result_.last_secure = spec.iterations;
    } else if (!result_.first_insecure) {
      result_.first_insecure = spec.iterations;
      if (observation.ede && !result_.limit_ede)
        result_.limit_ede = observation.ede;
    }
  }
}

void ProbeFlow::infer_limits() {
  // Inference. The probed grid is dense enough (§4.2) that the value just
  // below the onset is the enforced limit.
  const auto probed_below = [&](std::uint16_t onset) -> std::uint16_t {
    std::uint16_t below = 0;
    for (const auto& [n, obs] : result_.sweep) {
      if (n < onset) below = n;
    }
    return below;
  };
  if (result_.first_servfail) {
    result_.implements_item8 = true;
    result_.servfail_limit = probed_below(*result_.first_servfail);
  }
  if (result_.first_insecure &&
      (!result_.first_servfail ||
       *result_.first_insecure < *result_.first_servfail)) {
    result_.implements_item6 = true;
    result_.insecure_limit = probed_below(*result_.first_insecure);
  }
  result_.item12_gap = result_.implements_item6 && result_.implements_item8 &&
                       *result_.first_insecure < *result_.first_servfail;
}

}  // namespace zh::scanner
