// Synthetic domain-ecosystem specification, calibrated to every population
// statistic the paper reports (§5.1):
//
//   302 M registered domains (scaled), 8.8 % DNSSEC-enabled, 58.3 % of those
//   NSEC3-enabled; Table 2 operator market shares and parameter mixes;
//   12.2 % zero additional iterations; 8.6 % saltless; 99.9 % ≤ 25
//   iterations; 43 domains > 150 (12 at 500); salt ≤ 10 B for 97.2 %,
//   170 domains > 45 B (9 at 160 B, one operator); 6.4 % opt-out;
//   TLD census: 1,449 TLDs / 1,354 DNSSEC / 1,302 NSEC3, 688 zero-iteration,
//   447 at 100 (one registry services provider), salt 672 none / 558 8 B /
//   7 10 B, 85.4 % opt-out.
//
// Everything is a pure deterministic function of (seed, index): the lazy
// zone provider recomputes a domain's profile on demand, so the 302 K-zone
// ecosystem never exists in memory at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "zone/zone.hpp"

namespace zh::workload {

/// One (iterations, salt length) choice with its weight inside an operator.
struct ParamChoice {
  std::uint16_t iterations = 0;
  std::uint8_t salt_len = 0;
  double weight = 1.0;
};

/// What a hosting operator signs its customers' zones with.
enum class SigningStyle {
  kNsec3,     // hashed denial — the study population
  kNsec,      // plain NSEC (DNSSEC-enabled but not NSEC3-enabled)
  kUnsigned,  // no DNSSEC
};

/// A hosting operator (Table 2 rows + calibrated long tail).
struct OperatorModel {
  std::string name;
  SigningStyle style = SigningStyle::kNsec3;
  /// Share within the operator's style population (NSEC3 shares follow
  /// Table 2: squarespace 39.4 %, one.com 9.5 %, ...).
  double share = 0.0;
  std::vector<ParamChoice> mix;  // unused for kNsec/kUnsigned
};

/// A TLD with its registry-chosen parameters.
struct TldProfile {
  std::string label;
  bool dnssec = true;
  bool nsec3 = true;  // false → NSEC when dnssec
  std::uint16_t iterations = 0;
  std::uint8_t salt_len = 0;
  bool opt_out = true;
  bool identity_digital = false;  // the 447-TLD registry services provider
  double domain_weight = 0.0;     // share of registered domains
};

/// The resolved profile of one registered domain.
struct DomainProfile {
  dns::Name apex;
  std::size_t operator_index = 0;  // into EcosystemSpec::operators()
  bool dnssec = false;
  zone::DenialMode denial = zone::DenialMode::kUnsigned;
  zone::Nsec3Params nsec3;  // meaningful when denial == kNsec3
};

/// Measurement epoch — the paper's future-work item (i): how parameters
/// evolved. Encodes the two documented registry transitions: Identity
/// Digital moved its 447 TLDs from 1 → 100 additional iterations in
/// September 2020 and from 100 → 0 after the paper's March 2024
/// measurement; TransIP moved customers from 100 → 0 around 2021.
enum class Snapshot {
  kSept2020,    // before the Identity Digital 1 → 100 roll
  kEarly2021,   // 100-iteration TLD era, TransIP still at 100
  kMarch2024,   // the paper's measurement window (default)
  kLate2024,    // after the RFC 9276 remediation (TLDs back to 0)
};

class EcosystemSpec {
 public:
  struct Options {
    /// Population scale: 1.0 = the paper's 302 M domains. Default 1:1000.
    double scale = 0.001;
    std::uint64_t seed = 42;
    /// Measurement epoch (affects Identity Digital TLDs and TransIP).
    Snapshot snapshot = Snapshot::kMarch2024;
  };

  explicit EcosystemSpec(Options options);

  const Options& options() const noexcept { return options_; }

  /// ≈ 302 M × scale, plus the fixed long-tail specials.
  std::size_t domain_count() const noexcept { return domain_count_; }

  const std::vector<TldProfile>& tlds() const noexcept { return tlds_; }
  const std::vector<OperatorModel>& operators() const noexcept {
    return operators_;
  }

  /// Deterministic profile of domain `index` (0 ≤ index < domain_count()).
  DomainProfile domain(std::size_t index) const;

  /// Parses "d<index>.<tld>" back to the index; nullopt for foreign names.
  std::optional<std::size_t> index_of(const dns::Name& apex) const;

  /// Paper-reported population constants (full-scale, for comparisons).
  static constexpr std::uint64_t kPaperDomains = 302'000'000;
  static constexpr double kDnssecRate = 0.088;        // 26.6 M / 302 M
  static constexpr double kNsec3RateGivenDnssec = 0.583;  // 15.5 / 26.6
  static constexpr double kOptOutRate = 0.064;        // 6.4 % of NSEC3

 private:
  void build_operators();
  void build_tlds();

  Options options_;
  std::size_t domain_count_ = 0;
  std::size_t specials_ = 0;  // count of planted long-tail domains
  std::vector<OperatorModel> operators_;
  std::vector<TldProfile> tlds_;
  std::vector<double> tld_cumulative_;       // domain_weight prefix sums
  std::vector<double> nsec3_op_cumulative_;  // NSEC3 operator prefix sums
  std::vector<std::size_t> nsec3_op_index_;  // map into operators_
  std::vector<std::size_t> nsec_ops_;        // NSEC-style operator indexes
  std::vector<std::size_t> unsigned_ops_;    // unsigned-style indexes
  std::size_t giant_salt_op_ = 0;            // the 160-byte-salt operator
  std::size_t special_tail_op_ = 0;          // serves the >150-iteration tail
};

}  // namespace zh::workload
