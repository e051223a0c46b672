#include "workload/spec.hpp"

#include <cmath>
#include <cstdio>

namespace zh::workload {
namespace {

/// splitmix64: deterministic per-index randomness.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0,1) from a stream of draws.
class Draws {
 public:
  Draws(std::uint64_t seed, std::uint64_t index)
      : state_(splitmix(seed ^ splitmix(index + 1))) {}
  double uniform() {
    state_ = splitmix(state_);
    return static_cast<double>(state_ >> 11) / 9007199254740992.0;
  }
  std::uint64_t integer() {
    state_ = splitmix(state_);
    return state_;
  }

 private:
  std::uint64_t state_;
};

/// Deterministic salt bytes of a given length.
std::vector<std::uint8_t> make_salt(Draws& draws, std::uint8_t len) {
  std::vector<std::uint8_t> salt(len);
  for (auto& b : salt) b = static_cast<std::uint8_t>(draws.integer());
  return salt;
}

// Long-tail iteration specials (paper §5.1): 43 domains above 150, 12 of
// them at 500 — planted with absolute counts so the tail survives scaling.
constexpr std::size_t kIterTailCount = 43;
constexpr std::size_t kIterTailAt500 = 12;
// Salt specials: 170 domains with salt > 45 B, 9 at 160 B, one operator.
constexpr std::size_t kSaltTailCount = 170;
constexpr std::size_t kSaltTailAt160 = 9;

}  // namespace

EcosystemSpec::EcosystemSpec(Options options) : options_(options) {
  build_operators();
  build_tlds();
  specials_ = kIterTailCount + kSaltTailCount;
  domain_count_ = static_cast<std::size_t>(
                      static_cast<double>(kPaperDomains) * options_.scale) +
                  specials_;
}

void EcosystemSpec::build_operators() {
  // Table 2 (share of NSEC3-enabled domains; iterations/salt-length mixes).
  const auto add_nsec3 = [this](std::string name, double share,
                                std::vector<ParamChoice> mix) {
    operators_.push_back(OperatorModel{std::move(name), SigningStyle::kNsec3,
                                       share, std::move(mix)});
  };
  add_nsec3("squarespace", 0.394, {{1, 8, 1.0}});
  add_nsec3("one-com", 0.095,
            {{5, 5, 0.4}, {5, 4, 0.3}, {1, 2, 0.2}, {1, 4, 0.1}});
  add_nsec3("ovhcloud", 0.084, {{8, 8, 1.0}});
  add_nsec3("wix", 0.050, {{1, 8, 1.0}});
  // TransIP migrated customers from 100 to 0 additional iterations around
  // 2021; the paper still sees a 0.3 % residue of the old setting in 2024.
  switch (options_.snapshot) {
    case Snapshot::kSept2020:
    case Snapshot::kEarly2021:
      add_nsec3("transip", 0.042, {{100, 8, 1.0}});
      break;
    case Snapshot::kMarch2024:
      add_nsec3("transip", 0.042, {{0, 8, 0.997}, {100, 8, 0.003}});
      break;
    case Snapshot::kLate2024:
      add_nsec3("transip", 0.042, {{0, 8, 1.0}});
      break;
  }
  add_nsec3("loopia", 0.036, {{1, 1, 1.0}});
  add_nsec3("domainnameshop", 0.027, {{0, 0, 1.0}});
  add_nsec3("timeweb", 0.021, {{3, 0, 1.0}});
  add_nsec3("hostnet", 0.015, {{1, 4, 0.7}, {0, 0, 0.3}});
  add_nsec3("hostpoint", 0.013, {{1, 40, 1.0}});
  // Long tail, calibrated so that globally 12.2 % of NSEC3-enabled domains
  // use zero iterations, 8.6 % have no salt, 99.9 % stay ≤ 25 iterations
  // and 97.2 % of salts are ≤ 10 bytes (see spec.hpp header comment).
  // The tail is sharded into many distinct NS identities so that — as in
  // the paper — the top-10 operators cover 77.7 % and no synthetic tail
  // host outranks a Table 2 row.
  const auto add_sharded = [&](const std::string& base, double share,
                               std::vector<ParamChoice> mix, int shards) {
    for (int i = 0; i < shards; ++i) {
      char name[48];
      std::snprintf(name, sizeof name, "%s-%02d", base.c_str(), i);
      add_nsec3(name, share / shards, mix);
    }
  };
  add_sharded("lt-compliant", 0.030, {{0, 0, 1.0}}, 10);
  add_sharded("lt-zero-salted", 0.0186, {{0, 8, 1.0}}, 8);
  add_sharded("lt-nosalt-iter", 0.0035, {{2, 0, 1.0}}, 4);
  add_sharded("lt-bigsalt", 0.015,
              {{1, 16, 0.4}, {1, 24, 0.3}, {1, 32, 0.2}, {1, 45, 0.1}}, 6);
  add_sharded("lt-mid", 0.1551,
              {{1, 4, 0.30}, {1, 8, 0.10}, {2, 8, 0.12}, {3, 4, 0.10},
               {5, 8, 0.10}, {7, 10, 0.08}, {10, 8, 0.08}, {12, 4, 0.05},
               {15, 8, 0.04}, {20, 10, 0.02}, {25, 8, 0.01}},
              30);
  add_sharded("lt-hi", 0.0008,
              {{30, 8, 0.4}, {50, 8, 0.3}, {100, 8, 0.2}, {150, 8, 0.1}}, 2);

  // The operator exclusively serving the > 45 B salt tail (§5.1: "served by
  // a single name server operator").
  giant_salt_op_ = operators_.size();
  operators_.push_back(OperatorModel{"giant-salt-op", SigningStyle::kNsec3,
                                     0.0,
                                     {{1, 60, 0.6}, {1, 100, 0.2},
                                      {1, 120, 0.15}, {1, 160, 0.05}}});
  // The > 150-iteration tail lives across assorted hosts; give it one.
  special_tail_op_ = operators_.size();
  operators_.push_back(OperatorModel{"iteration-tail-op",
                                     SigningStyle::kNsec3, 0.0, {}});

  // DNSSEC-but-NSEC operators (41.7 % of DNSSEC-enabled domains).
  nsec_ops_.push_back(operators_.size());
  operators_.push_back(
      OperatorModel{"nsec-host-1", SigningStyle::kNsec, 0.6, {}});
  nsec_ops_.push_back(operators_.size());
  operators_.push_back(
      OperatorModel{"nsec-host-2", SigningStyle::kNsec, 0.4, {}});

  // Unsigned hosting (91.2 % of all registered domains).
  for (int i = 1; i <= 3; ++i) {
    unsigned_ops_.push_back(operators_.size());
    operators_.push_back(OperatorModel{"parked-" + std::to_string(i),
                                       SigningStyle::kUnsigned,
                                       i == 1 ? 0.5 : 0.25, {}});
  }

  // Cumulative weights over NSEC3 operators for O(log n) selection.
  double acc = 0.0;
  for (std::size_t i = 0; i < operators_.size(); ++i) {
    if (operators_[i].style != SigningStyle::kNsec3 ||
        operators_[i].share == 0.0)
      continue;
    acc += operators_[i].share;
    nsec3_op_cumulative_.push_back(acc);
    nsec3_op_index_.push_back(i);
  }
  // Normalise (defensive: shares sum to ~1.0 by construction).
  for (auto& v : nsec3_op_cumulative_) v /= acc;
}

void EcosystemSpec::build_tlds() {
  // 1,449 TLDs: 95 unsigned, 52 NSEC, 1,302 NSEC3 (numbers from §5.1).
  // NSEC3 parameters: 688 zero-iteration, 447 at 100 (Identity Digital),
  // 167 others; salts: 672 none, 558 8 B, 7 10 B, 65 4 B.
  constexpr std::size_t kTotal = 1449;
  constexpr std::size_t kUnsigned = 95;    // 1449 - 1354 DNSSEC-enabled
  constexpr std::size_t kNsecOnly = 52;    // 1354 - 1302 NSEC3-enabled
  constexpr std::size_t kZeroIter = 688;
  constexpr std::size_t kIdentityDigital = 447;

  tlds_.reserve(kTotal);
  const auto push = [this](TldProfile profile) {
    tlds_.push_back(std::move(profile));
  };

  // A few headline TLDs with real-world-like parameters and heavy weight.
  push({.label = "com", .dnssec = true, .nsec3 = true, .iterations = 0,
        .salt_len = 0, .opt_out = true, .identity_digital = false,
        .domain_weight = 0.40});
  push({.label = "net", .dnssec = true, .nsec3 = true, .iterations = 0,
        .salt_len = 0, .opt_out = true, .identity_digital = false,
        .domain_weight = 0.09});
  push({.label = "org", .dnssec = true, .nsec3 = true, .iterations = 0,
        .salt_len = 0, .opt_out = true, .identity_digital = false,
        .domain_weight = 0.07});
  push({.label = "de", .dnssec = true, .nsec3 = true, .iterations = 0,
        .salt_len = 8, .opt_out = true, .identity_digital = false,
        .domain_weight = 0.05});
  push({.label = "se", .dnssec = true, .nsec3 = false, .iterations = 0,
        .salt_len = 0, .opt_out = false, .identity_digital = false,
        .domain_weight = 0.02});
  push({.label = "ch", .dnssec = true, .nsec3 = true, .iterations = 0,
        .salt_len = 8, .opt_out = true, .identity_digital = false,
        .domain_weight = 0.02});

  // Synthetic remainder.
  std::size_t zero_left = kZeroIter - 5;  // com/net/org/de/ch used 5 zeros
  std::size_t identity_left = kIdentityDigital;
  std::size_t nsec_left = kNsecOnly - 1;  // se used one
  std::size_t unsigned_left = kUnsigned;
  std::size_t salt8_left = 558 - 2;       // de/ch used 8-byte salts
  std::size_t salt10_left = 7;
  std::size_t salt4_left = 65;

  std::size_t index = tlds_.size();
  const double tail_weight = (1.0 - 0.65) / static_cast<double>(kTotal - 6);
  while (tlds_.size() < kTotal) {
    char label[16];
    std::snprintf(label, sizeof label, "tld%04zu", index++);
    TldProfile profile;
    profile.label = label;
    profile.domain_weight = tail_weight;

    if (unsigned_left > 0) {
      --unsigned_left;
      profile.dnssec = false;
      profile.nsec3 = false;
    } else if (nsec_left > 0) {
      --nsec_left;
      profile.nsec3 = false;
      profile.opt_out = false;
    } else if (identity_left > 0) {
      --identity_left;
      profile.identity_digital = true;
      // 1 → 100 in September 2020 [75], 100 → 0 after the paper's
      // measurements, "as required by the best current practice" (§1).
      switch (options_.snapshot) {
        case Snapshot::kSept2020: profile.iterations = 1; break;
        case Snapshot::kEarly2021:
        case Snapshot::kMarch2024: profile.iterations = 100; break;
        case Snapshot::kLate2024: profile.iterations = 0; break;
      }
      profile.salt_len = 8;
      if (salt8_left > 0) --salt8_left;
    } else if (zero_left > 0) {
      --zero_left;
      profile.iterations = 0;
      // Salt census fill: prefer saltless, then 8 B, 10 B, 4 B.
      if (salt10_left > 0 && zero_left % 97 == 0) {
        --salt10_left;
        profile.salt_len = 10;
      } else if (salt8_left > 0 && zero_left % 2 == 0) {
        --salt8_left;
        profile.salt_len = 8;
      } else {
        profile.salt_len = 0;
      }
    } else {
      // 167 remaining NSEC3 TLDs with small nonzero iteration counts.
      const std::size_t slot = tlds_.size() % 3;
      profile.iterations = slot == 0 ? 1 : (slot == 1 ? 5 : 10);
      if (salt4_left > 0) {
        --salt4_left;
        profile.salt_len = 4;
      } else if (salt8_left > 0) {
        --salt8_left;
        profile.salt_len = 8;
      } else {
        profile.salt_len = 0;
      }
    }
    // 85.4 % of NSEC3 TLDs set opt-out.
    profile.opt_out = profile.nsec3 && (tlds_.size() % 7 != 0);
    push(std::move(profile));
  }

  double acc = 0.0;
  for (const auto& tld : tlds_) {
    acc += tld.domain_weight;
    tld_cumulative_.push_back(acc);
  }
  for (auto& v : tld_cumulative_) v /= acc;
}

DomainProfile EcosystemSpec::domain(std::size_t index) const {
  Draws draws(options_.seed, index);
  DomainProfile profile;

  // TLD selection.
  const double tld_draw = draws.uniform();
  std::size_t tld_index = 0;
  {
    const auto it = std::lower_bound(tld_cumulative_.begin(),
                                     tld_cumulative_.end(), tld_draw);
    tld_index = static_cast<std::size_t>(it - tld_cumulative_.begin());
    if (tld_index >= tlds_.size()) tld_index = tlds_.size() - 1;
  }
  const TldProfile& tld = tlds_[tld_index];
  profile.apex = dns::Name::must_parse("d" + std::to_string(index) + "." +
                                       tld.label);

  // Planted long-tail specials (absolute counts, DESIGN.md §1).
  if (index < kIterTailCount) {
    profile.dnssec = true;
    profile.denial = zone::DenialMode::kNsec3;
    profile.operator_index = special_tail_op_;
    profile.nsec3.iterations =
        index < kIterTailAt500
            ? 500
            : static_cast<std::uint16_t>(
                  151 + (index - kIterTailAt500) * 11);  // 151..481
    profile.nsec3.salt = make_salt(draws, 8);
    return profile;
  }
  if (index < kIterTailCount + kSaltTailCount) {
    const std::size_t salt_index = index - kIterTailCount;
    profile.dnssec = true;
    profile.denial = zone::DenialMode::kNsec3;
    profile.operator_index = giant_salt_op_;
    profile.nsec3.iterations = 1;
    const std::uint8_t salt_len =
        salt_index < kSaltTailAt160
            ? 160
            : static_cast<std::uint8_t>(46 + (salt_index % 80));
    profile.nsec3.salt = make_salt(draws, salt_len);
    return profile;
  }

  // Regular population.
  if (draws.uniform() >= kDnssecRate) {
    profile.dnssec = false;
    profile.denial = zone::DenialMode::kUnsigned;
    const double pick = draws.uniform();
    profile.operator_index =
        unsigned_ops_[pick < 0.5 ? 0 : (pick < 0.75 ? 1 : 2)];
    return profile;
  }
  profile.dnssec = true;
  if (draws.uniform() >= kNsec3RateGivenDnssec) {
    profile.denial = zone::DenialMode::kNsec;
    profile.operator_index = nsec_ops_[draws.uniform() < 0.6 ? 0 : 1];
    return profile;
  }

  profile.denial = zone::DenialMode::kNsec3;
  const double op_draw = draws.uniform();
  {
    const auto it = std::lower_bound(nsec3_op_cumulative_.begin(),
                                     nsec3_op_cumulative_.end(), op_draw);
    std::size_t slot = static_cast<std::size_t>(
        it - nsec3_op_cumulative_.begin());
    if (slot >= nsec3_op_index_.size()) slot = nsec3_op_index_.size() - 1;
    profile.operator_index = nsec3_op_index_[slot];
  }
  const OperatorModel& op = operators_[profile.operator_index];
  const double mix_draw = draws.uniform();
  double acc = 0.0;
  ParamChoice choice = op.mix.empty() ? ParamChoice{} : op.mix.back();
  for (const auto& candidate : op.mix) {
    acc += candidate.weight;
    if (mix_draw < acc) {
      choice = candidate;
      break;
    }
  }
  profile.nsec3.iterations = choice.iterations;
  profile.nsec3.salt = make_salt(draws, choice.salt_len);
  profile.nsec3.opt_out = draws.uniform() < kOptOutRate;  // §5.1: 6.4 %
  return profile;
}

std::optional<std::size_t> EcosystemSpec::index_of(
    const dns::Name& apex) const {
  if (apex.label_count() < 2) return std::nullopt;
  const std::string& label = apex.label(0);
  if (label.size() < 2 || label[0] != 'd') return std::nullopt;
  std::size_t index = 0;
  for (std::size_t i = 1; i < label.size(); ++i) {
    if (label[i] < '0' || label[i] > '9') return std::nullopt;
    index = index * 10 + static_cast<std::size_t>(label[i] - '0');
  }
  if (index >= domain_count_) return std::nullopt;
  // Cross-check: the TLD must match what the profile would generate.
  const DomainProfile profile = domain(index);
  if (!profile.apex.equals(apex)) return std::nullopt;
  return index;
}

}  // namespace zh::workload
