// Tests for NSEC3 chain memoisation (zone/chain_memo.hpp): a re-signed zone
// replays its cached chain byte-identically with zero new physical SHA-1
// work while the *logical* CostMeter accounting — the determinism contract's
// cost surface — stays exactly what a from-scratch rebuild would tick.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/cost_meter.hpp"
#include "crypto/nsec3_memo.hpp"
#include "dns/dnssec.hpp"
#include "server/auth_server.hpp"
#include "trace/trace.hpp"
#include "zone/chain_memo.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace zh::zone {
namespace {

using dns::Message;
using dns::Name;
using dns::RrType;

/// Pins the calling thread's memo to `capacity` for one test, starting and
/// leaving it empty so tests cannot see each other's chains. The signer
/// hashes through the NSEC3 digest memo, so that memo is pinned off: the
/// tests measure the chain memo alone.
class ScopedMemoCapacity {
 public:
  explicit ScopedMemoCapacity(std::size_t capacity)
      : previous_(Nsec3ChainMemo::instance().capacity()),
        previous_digest_memo_(crypto::Nsec3DigestMemo::enabled()) {
    Nsec3ChainMemo::instance().clear();
    Nsec3ChainMemo::instance().set_capacity(capacity);
    crypto::Nsec3DigestMemo::set_enabled(false);
  }
  ~ScopedMemoCapacity() {
    Nsec3ChainMemo::instance().clear();
    Nsec3ChainMemo::instance().set_capacity(previous_);
    crypto::Nsec3DigestMemo::set_enabled(previous_digest_memo_);
  }

 private:
  std::size_t previous_;
  bool previous_digest_memo_;
};

/// A deterministic multi-name zone; `extra` adds one distinguishing record.
Zone build_zone(const std::string& apex_str, bool extra = false) {
  Zone zone(Name::must_parse(apex_str));
  const Name apex = zone.apex();
  zone.add(dns::make_soa(apex, 3600, *apex.prepended("ns1"), 1));
  zone.add(dns::make_ns(apex, 3600, *apex.prepended("ns1")));
  zone.add(dns::make_a(*apex.prepended("ns1"), 3600, 192, 0, 2, 53));
  zone.add(dns::make_a(*apex.prepended("www"), 300, 192, 0, 2, 80));
  zone.add(dns::make_txt(*apex.prepended("api"), 300, "v1"));
  if (extra) zone.add(dns::make_a(*apex.prepended("mail"), 300, 192, 0, 2, 25));
  return zone;
}

SignerConfig nsec3_config(std::uint16_t iterations = 5) {
  SignerConfig config;
  config.nsec3.iterations = iterations;
  config.nsec3.salt = {0xab, 0xcd};
  return config;
}

struct SignCost {
  std::uint64_t sha1 = 0;
  std::uint64_t sha1_physical = 0;
  std::uint64_t sha2 = 0;
  std::uint64_t nsec3 = 0;
};

/// Signs a fresh copy of the zone and returns the CostMeter deltas plus the
/// signed zone's full text.
SignCost sign_and_measure(Zone&& zone, const SignerConfig& config,
                          std::string* text = nullptr) {
  using crypto::CostMeter;
  const std::uint64_t sha1 = CostMeter::sha1_blocks();
  const std::uint64_t phys = CostMeter::sha1_physical_blocks();
  const std::uint64_t sha2 = CostMeter::sha2_blocks();
  const std::uint64_t nsec3 = CostMeter::nsec3_hashes();
  sign_zone(zone, config);
  if (text != nullptr) *text = zone.to_text();
  return SignCost{CostMeter::sha1_blocks() - sha1,
                  CostMeter::sha1_physical_blocks() - phys,
                  CostMeter::sha2_blocks() - sha2,
                  CostMeter::nsec3_hashes() - nsec3};
}

TEST(ChainMemo, ResignReplaysChainWithoutPhysicalHashing) {
  ScopedMemoCapacity scoped(16);
  const auto& stats = Nsec3ChainMemo::instance().stats();
  const std::uint64_t hits0 = stats.hits;

  std::string first_text;
  const SignCost first =
      sign_and_measure(build_zone("memo-a.test"), nsec3_config(), &first_text);
  EXPECT_EQ(stats.hits, hits0);
  EXPECT_GT(first.sha1, 0u);
  // Chain hashing is the only SHA-1 consumer in signing, and the memo was
  // cold: physical equals logical.
  EXPECT_EQ(first.sha1_physical, first.sha1);

  std::string second_text;
  const SignCost second =
      sign_and_measure(build_zone("memo-a.test"), nsec3_config(), &second_text);
  EXPECT_EQ(stats.hits, hits0 + 1);
  // Logical accounting is byte-identical to the from-scratch build...
  EXPECT_EQ(second.sha1, first.sha1);
  EXPECT_EQ(second.sha2, first.sha2);
  EXPECT_EQ(second.nsec3, first.nsec3);
  // ...but no SHA-1 block was physically recomputed.
  EXPECT_EQ(second.sha1_physical, 0u);
  // And the signed zone is the same bytes.
  EXPECT_EQ(second_text, first_text);
}

TEST(ChainMemo, CapacityOneEvictsLeastRecentChain) {
  ScopedMemoCapacity scoped(1);
  const auto& stats = Nsec3ChainMemo::instance().stats();
  const std::uint64_t evictions0 = stats.evictions;
  const std::uint64_t hits0 = stats.hits;

  std::string first_text;
  sign_and_measure(build_zone("memo-b.test"), nsec3_config(), &first_text);
  sign_and_measure(build_zone("memo-c.test"), nsec3_config());  // evicts b
  EXPECT_EQ(stats.evictions, evictions0 + 1);
  EXPECT_EQ(Nsec3ChainMemo::instance().size(), 1u);

  std::string retry_text;
  const SignCost retry =
      sign_and_measure(build_zone("memo-b.test"), nsec3_config(), &retry_text);
  // Evicted: full physical rebuild, yet byte-identical output.
  EXPECT_EQ(stats.hits, hits0);
  EXPECT_EQ(retry.sha1_physical, retry.sha1);
  EXPECT_EQ(retry_text, first_text);
}

TEST(ChainMemo, CapacityZeroDisablesTheMemo) {
  ScopedMemoCapacity scoped(0);
  const auto& stats = Nsec3ChainMemo::instance().stats();
  const ChainMemoStats before = stats;

  std::string first_text;
  const SignCost first =
      sign_and_measure(build_zone("memo-d.test"), nsec3_config(), &first_text);
  std::string second_text;
  const SignCost second =
      sign_and_measure(build_zone("memo-d.test"), nsec3_config(), &second_text);

  // Disabled: no stats movement, every block physically hashed, and the
  // output identical to what the memoised path would have produced.
  EXPECT_EQ(stats.hits, before.hits);
  EXPECT_EQ(stats.misses, before.misses);
  EXPECT_EQ(stats.insertions, before.insertions);
  EXPECT_EQ(first.sha1_physical, first.sha1);
  EXPECT_EQ(second.sha1_physical, second.sha1);
  EXPECT_EQ(second.sha1, first.sha1);
  EXPECT_EQ(second_text, first_text);
}

TEST(ChainMemo, LogicalCostsMatchBetweenMemoOnAndOff) {
  SignCost on;
  std::string on_text;
  {
    ScopedMemoCapacity scoped(16);
    sign_and_measure(build_zone("memo-e.test"), nsec3_config());
    on = sign_and_measure(build_zone("memo-e.test"), nsec3_config(), &on_text);
  }
  SignCost off;
  std::string off_text;
  {
    ScopedMemoCapacity scoped(0);
    sign_and_measure(build_zone("memo-e.test"), nsec3_config());
    off =
        sign_and_measure(build_zone("memo-e.test"), nsec3_config(), &off_text);
  }
  // The amplification currency (logical counters) and the signed bytes are
  // invariant under memoisation; only physical work differs.
  EXPECT_EQ(on.sha1, off.sha1);
  EXPECT_EQ(on.sha2, off.sha2);
  EXPECT_EQ(on.nsec3, off.nsec3);
  EXPECT_EQ(on_text, off_text);
  EXPECT_EQ(on.sha1_physical, 0u);
  EXPECT_EQ(off.sha1_physical, off.sha1);
}

TEST(ChainMemo, DifferentContentOrParametersMiss) {
  ScopedMemoCapacity scoped(16);
  const auto& stats = Nsec3ChainMemo::instance().stats();

  sign_and_measure(build_zone("memo-f.test"), nsec3_config());
  const std::uint64_t hits0 = stats.hits;

  // Extra record → different candidate set → different chain.
  const SignCost extra = sign_and_measure(build_zone("memo-f.test", true),
                                          nsec3_config());
  EXPECT_EQ(stats.hits, hits0);
  EXPECT_EQ(extra.sha1_physical, extra.sha1);

  // Different iteration count → different parameters → different chain.
  const SignCost iters =
      sign_and_measure(build_zone("memo-f.test"), nsec3_config(6));
  EXPECT_EQ(stats.hits, hits0);
  EXPECT_EQ(iters.sha1_physical, iters.sha1);

  // The original configuration is still cached.
  sign_and_measure(build_zone("memo-f.test"), nsec3_config());
  EXPECT_EQ(stats.hits, hits0 + 1);
}

TEST(ChainMemo, LazyServerResignIsAMemoHit) {
  ScopedMemoCapacity scoped(16);

  struct FakeTime final : trace::TimeSource {
    std::int64_t now_ns() const override { return 0; }
  } time;
  trace::Tracer tracer(&time);
  server::AuthoritativeServer server("bulk-ns");
  server.set_tracer(&tracer);
  int materialised = 0;
  server.set_lazy_provider(
      [](const Name& qname) -> std::optional<Name> {
        const Name suffix = Name::must_parse("lazy");
        if (!qname.is_subdomain_of(suffix) || qname.label_count() < 2)
          return std::nullopt;
        return qname.ancestor_with_labels(2);
      },
      [&materialised](const Name& apex) -> std::shared_ptr<const Zone> {
        ++materialised;
        auto zone = std::make_shared<Zone>(build_zone(apex.to_string()));
        sign_zone(*zone, nsec3_config());
        return zone;
      },
      /*cache_capacity=*/1);

  const auto ask = [&server](std::string_view qname) {
    return server.handle(
        Message::make_query(1, Name::must_parse(qname), RrType::kA,
                            /*dnssec=*/true),
        simnet::IpAddress::v4(198, 51, 100, 1));
  };

  const Message first = ask("www.alpha.lazy");
  ask("www.beta.lazy");  // evicts alpha (capacity 1)

  // Re-materialising alpha re-signs it — through the memo, with no new
  // physical SHA-1 work beyond the query-time proof hashing.
  const std::uint64_t hits_before = Nsec3ChainMemo::instance().stats().hits;
  const Message revived = ask("www.alpha.lazy");
  EXPECT_EQ(materialised, 3);
  EXPECT_EQ(server.lazy_resigns(), 1u);
  EXPECT_EQ(Nsec3ChainMemo::instance().stats().hits, hits_before + 1);
  EXPECT_EQ(tracer.metrics().value("server.chain_memo_hit"), 1u);

  // The replayed chain answers byte-identically.
  EXPECT_EQ(revived.to_wire(), first.to_wire());
}

TEST(ChainMemo, SignerHashesThroughTheDigestMemo) {
  // The chain memo off, the digest memo on and empty: a re-sign finds every
  // chain name's digest in the digest memo.
  ScopedMemoCapacity chain_memo_off(0);
  crypto::Nsec3DigestMemo::set_enabled(true);
  crypto::Nsec3DigestMemo::instance().clear();

  std::string first_text;
  const SignCost first =
      sign_and_measure(build_zone("memo-g.test"), nsec3_config(), &first_text);
  std::string second_text;
  const SignCost second =
      sign_and_measure(build_zone("memo-g.test"), nsec3_config(), &second_text);

  EXPECT_GT(first.sha1_physical, 0u);
  EXPECT_EQ(second_text, first_text);
  EXPECT_EQ(second.sha1, first.sha1);
  EXPECT_EQ(second.nsec3, first.nsec3);
  EXPECT_EQ(second.sha1_physical, 0u);
}

TEST(ChainMemo, ClearAlsoEmptiesTheDigestMemo) {
  // perfbench and the micro-benchmarks ask one memo for cold hashing.
  const bool was_enabled = crypto::Nsec3DigestMemo::enabled();
  crypto::Nsec3DigestMemo::set_enabled(true);
  (void)dns::nsec3_hash_name(Name::must_parse("www.example.com"), {}, 10);
  ASSERT_GT(crypto::Nsec3DigestMemo::instance().size(), 0u);

  Nsec3ChainMemo::instance().clear();
  EXPECT_EQ(crypto::Nsec3DigestMemo::instance().size(), 0u);
  crypto::Nsec3DigestMemo::set_enabled(was_enabled);
}

}  // namespace
}  // namespace zh::zone
