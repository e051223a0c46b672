// Micro-benchmarks (google-benchmark): NSEC3 hashing — the primitive whose
// cost RFC 9276 regulates — across iteration counts and salt lengths, plus
// the signing/validation hot paths.
#include <benchmark/benchmark.h>

#include "crypto/nsec3_hash.hpp"
#include "crypto/nsec3_memo.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha2.hpp"
#include "crypto/signing.hpp"
#include "dns/dnssec.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace {

using zh::dns::Name;

/// Pins the NSEC3 digest memo on or off for one benchmark's scope, empty.
class ScopedDigestMemo {
 public:
  explicit ScopedDigestMemo(bool on)
      : previous_(zh::crypto::Nsec3DigestMemo::enabled()) {
    zh::crypto::Nsec3DigestMemo::set_enabled(on);
    zh::crypto::Nsec3DigestMemo::instance().clear();
  }
  ~ScopedDigestMemo() {
    zh::crypto::Nsec3DigestMemo::instance().clear();
    zh::crypto::Nsec3DigestMemo::set_enabled(previous_);
  }

 private:
  bool previous_;
};

/// Forces the scalar SHA-1 and SHA-256 kernels on or off for one
/// benchmark's scope.
class ScopedSha1Scalar {
 public:
  explicit ScopedSha1Scalar(bool on)
      : previous_(zh::crypto::sha1_scalar_forced()) {
    zh::crypto::force_sha1_scalar(on);
  }
  ~ScopedSha1Scalar() { zh::crypto::force_sha1_scalar(previous_); }

 private:
  bool previous_;
};

void BM_Sha1Block(benchmark::State& state) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                       0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zh::crypto::Sha1::hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Block)->Arg(20)->Arg(64)->Arg(256)->Arg(1024);

/// For benchmarks whose range(0) selects the SHA-256 kernel the way
/// BM_Nsec3Hash_Iterations selects SHA-1's (0 scalar, forced / 1 the host's
/// default, SHA-NI): labels the benchmark with the kernel that runs, or
/// skips it and returns false when 1 asks for SHA-NI the host lacks.
bool sha256_kernel_available(benchmark::State& state) {
  const bool scalar =
      zh::crypto::sha256_compress() == &zh::crypto::sha256_compress_scalar;
  if (state.range(0) != 0 && scalar) {
    state.SkipWithError("SHA-NI not supported on this host/build");
    return false;
  }
  state.SetLabel(scalar ? "scalar" : "sha-ni");
  return true;
}

/// One SHA-256 of range(1) bytes under the kernel range(0) selects.
void BM_Sha256Block(benchmark::State& state) {
  ScopedSha1Scalar kernel(state.range(0) == 0);
  if (!sha256_kernel_available(state)) return;
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(1)),
                                       0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zh::crypto::Sha256::hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_Sha256Block)->ArgsProduct({{0, 1}, {64, 1024}});

/// The validator's signature check (HMAC-SHA-256 over range(1) bytes of
/// signed data) under the kernel range(0) selects: what every RRSIG a
/// Fig. 3 probe validates costs besides its NSEC3 hashing.
void BM_SimVerify(benchmark::State& state) {
  ScopedSha1Scalar kernel(state.range(0) == 0);
  if (!sha256_kernel_available(state)) return;
  const auto key = zh::crypto::SimKey::derive("bench.example/zsk");
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(1)));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const auto signature = key.sign(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        zh::crypto::sim_verify(key.public_key(), data, signature));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimVerify)->ArgsProduct({{0, 1}, {160, 512}});

/// The headline micro: one NSEC3 hash at N additional iterations, computed
/// from scratch every time. range(0) selects the single-stream kernel
/// (0 scalar, forced / 1 the host's default, SHA-NI; skipped without it),
/// range(1) the iteration count. The loop re-hashes one owner, so the
/// digest memo is pinned off.
void BM_Nsec3Hash_Iterations(benchmark::State& state) {
  ScopedSha1Scalar kernel(state.range(0) == 0);
  const bool scalar =
      zh::crypto::sha1_single_compress() == &zh::crypto::sha1_compress_scalar;
  if (state.range(0) != 0 && scalar) {
    state.SkipWithError("SHA-NI not supported on this host/build");
    return;
  }
  ScopedDigestMemo memo_off(false);
  const auto owner = Name::must_parse("www.example.com").to_canonical_wire();
  const std::uint16_t iterations =
      static_cast<std::uint16_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zh::crypto::nsec3_hash(
        std::span<const std::uint8_t>(owner.data(), owner.size()), {},
        iterations));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(scalar ? "scalar" : "sha-ni");
}
BENCHMARK(BM_Nsec3Hash_Iterations)
    ->ArgsProduct({{0, 1}, {0, 1, 10, 50, 100, 150, 500, 2500}});

/// The same hash answered by the digest memo: a lookup that credits the
/// logical cost and hashes nothing, so it is flat in the iteration count.
void BM_Nsec3Hash_MemoHit(benchmark::State& state) {
  ScopedDigestMemo memo_on(true);
  const auto owner = Name::must_parse("www.example.com").to_canonical_wire();
  const std::uint16_t iterations =
      static_cast<std::uint16_t>(state.range(0));
  (void)zh::crypto::nsec3_hash(owner, {}, iterations);  // the one miss
  for (auto _ : state) {
    benchmark::DoNotOptimize(zh::crypto::nsec3_hash(
        std::span<const std::uint8_t>(owner.data(), owner.size()), {},
        iterations));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Nsec3Hash_MemoHit)->Arg(0)->Arg(10)->Arg(150)->Arg(2500);

void BM_Nsec3Hash_SaltLength(benchmark::State& state) {
  ScopedDigestMemo memo_off(false);
  const auto owner = Name::must_parse("www.example.com").to_canonical_wire();
  const std::vector<std::uint8_t> salt(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zh::crypto::nsec3_hash(
        std::span<const std::uint8_t>(owner.data(), owner.size()),
        std::span<const std::uint8_t>(salt.data(), salt.size()), 10));
  }
}
BENCHMARK(BM_Nsec3Hash_SaltLength)->Arg(0)->Arg(8)->Arg(40)->Arg(160);

/// A 20-host zone, BM_SignZone's workload.
zh::zone::Zone make_bench_zone(std::uint16_t iterations,
                               zh::zone::SignerConfig* config) {
  zh::zone::Zone zone(Name::must_parse("example.com"));
  zone.add(zh::dns::make_soa(zone.apex(), 3600,
                             Name::must_parse("ns1.example.com"), 1));
  zone.add(zh::dns::make_ns(zone.apex(), 3600,
                            Name::must_parse("ns1.example.com")));
  for (int i = 0; i < 20; ++i) {
    zone.add(zh::dns::make_a(
        *zone.apex().prepended("host" + std::to_string(i)), 300, 192, 0, 2,
        static_cast<std::uint8_t>(i)));
  }
  config->nsec3.iterations = iterations;
  return zone;
}

/// Zone signing cost by iteration count (authoritative-side view of Item 2).
/// The digest memo is pinned off so every iteration pays the full hash +
/// sign cost.
void BM_SignZone(benchmark::State& state) {
  ScopedDigestMemo memo_off(false);
  for (auto _ : state) {
    state.PauseTiming();
    zh::zone::SignerConfig config;
    zh::zone::Zone zone = make_bench_zone(
        static_cast<std::uint16_t>(state.range(0)), &config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(zh::zone::sign_zone(zone, config));
  }
}
BENCHMARK(BM_SignZone)->Arg(0)->Arg(1)->Arg(100)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
