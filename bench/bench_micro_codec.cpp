// Micro-benchmarks (google-benchmark): DNS wire codec — encode/decode of
// the message shapes the measurement pipeline handles millions of times.
//
// Every benchmark reports an `allocs/op` counter (counting operator new
// hook, bench_alloc.hpp).
#define ZH_BENCH_COUNT_ALLOCS
#include "bench_alloc.hpp"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "dns/message.hpp"

namespace {

using zh::dns::Message;
using zh::dns::Name;
using zh::dns::RrType;

/// Reports the hook's allocation delta as a per-iteration counter.
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state)
      : state_(state), before_(zh::bench::alloc_stats()) {}
  ~AllocScope() {
    const zh::bench::AllocStats after = zh::bench::alloc_stats();
    state_.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(after.allocations - before_.allocations) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
  }

 private:
  benchmark::State& state_;
  zh::bench::AllocStats before_;
};

Message nxdomain_response_with_nsec3() {
  Message query = Message::make_query(
      1, Name::must_parse("probe.nx.it-10.rfc9276-in-the-wild.com"),
      RrType::kA);
  Message response = Message::make_response(query);
  response.header.rcode = zh::dns::Rcode::kNxDomain;
  response.header.aa = true;
  response.authorities.push_back(zh::dns::make_soa(
      Name::must_parse("it-10.rfc9276-in-the-wild.com"), 3600,
      Name::must_parse("ns1.it-10.rfc9276-in-the-wild.com"), 1));
  for (int i = 0; i < 3; ++i) {
    zh::dns::Nsec3Rdata nsec3;
    nsec3.iterations = 10;
    nsec3.next_hash.assign(20, static_cast<std::uint8_t>(i * 40 + 7));
    nsec3.types = zh::dns::TypeBitmap({RrType::kA, RrType::kRrsig});
    response.authorities.push_back(zh::dns::ResourceRecord::make(
        Name::must_parse(std::string(32, static_cast<char>('a' + i)) +
                         ".it-10.rfc9276-in-the-wild.com"),
        RrType::kNsec3, 3600, nsec3));
    zh::dns::RrsigRdata sig;
    sig.type_covered = static_cast<std::uint16_t>(RrType::kNsec3);
    sig.signer = Name::must_parse("it-10.rfc9276-in-the-wild.com");
    sig.signature.assign(32, 0x42);
    response.authorities.push_back(zh::dns::ResourceRecord::make(
        response.authorities.back().name, RrType::kRrsig, 3600, sig));
  }
  return response;
}

void BM_EncodeQuery(benchmark::State& state) {
  const Message query = Message::make_query(
      1, Name::must_parse("www.example.com"), RrType::kA);
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(query.to_wire());
}
BENCHMARK(BM_EncodeQuery);

void BM_EncodeNxdomainWithProof(benchmark::State& state) {
  const Message response = nxdomain_response_with_nsec3();
  {
    AllocScope allocs(state);
    for (auto _ : state) benchmark::DoNotOptimize(response.to_wire());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(response.to_wire().size()));
}
BENCHMARK(BM_EncodeNxdomainWithProof);

void BM_WireSizeNxdomainWithProof(benchmark::State& state) {
  // The simnet/frontend truncation decision: size without serialising.
  const Message response = nxdomain_response_with_nsec3();
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(response.wire_size());
}
BENCHMARK(BM_WireSizeNxdomainWithProof);

void BM_FitsInNxdomainWithProof(benchmark::State& state) {
  // The same decision as the two truncation paths take it: the uncompressed
  // bound, with wire_size() only when the bound is over the limit.
  const Message response = nxdomain_response_with_nsec3();
  const std::size_t limit = static_cast<std::size_t>(state.range(0));
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(response.fits_in(limit));
}
BENCHMARK(BM_FitsInNxdomainWithProof)->Arg(512)->Arg(1232);

void BM_DecodeNxdomainWithProof(benchmark::State& state) {
  const auto wire = nxdomain_response_with_nsec3().to_wire();
  {
    AllocScope allocs(state);
    for (auto _ : state) {
      benchmark::DoNotOptimize(Message::from_wire(
          std::span<const std::uint8_t>(wire.data(), wire.size())));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeNxdomainWithProof);

void BM_RoundTripQuery(benchmark::State& state) {
  const Message query = Message::make_query(
      7, Name::must_parse("d123456.com"), RrType::kDnskey);
  AllocScope allocs(state);
  for (auto _ : state) {
    const auto wire = query.to_wire();
    benchmark::DoNotOptimize(Message::from_wire(
        std::span<const std::uint8_t>(wire.data(), wire.size())));
  }
}
BENCHMARK(BM_RoundTripQuery);

void BM_NameCanonicalCompare(benchmark::State& state) {
  const Name a = Name::must_parse("yljkjljk.a.example.com");
  const Name b = Name::must_parse("z.a.example.com");
  AllocScope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(Name::canonical_compare(a, b));
}
BENCHMARK(BM_NameCanonicalCompare);

// Copy of an inline name (arg 0: a 49-octet NSEC3 owner, no allocation)
// and of a spilled one (arg 1: 89 octets, one heap block per copy).
void BM_NameCopy(benchmark::State& state) {
  const Name inline_name =
      Name::must_parse("0123456789abcdefghijklmnopqrstuv.d12345.tld0001");
  const Name spilled = *Name::must_parse("it-150.rfc9276-in-the-wild.com")
                            .prepended(std::string(50, 'q'));
  const Name& name = state.range(0) == 0 ? inline_name : spilled;
  AllocScope allocs(state);
  for (auto _ : state) {
    Name copy = name;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_NameCopy)->Arg(0)->Arg(1);

void BM_NameFromWire(benchmark::State& state) {
  const std::vector<std::uint8_t> wire =
      Name::must_parse("0123456789abcdefghijklmnopqrstuv.d12345.tld0001")
          .to_wire();
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(Name::from_wire(wire));
}
BENCHMARK(BM_NameFromWire);

void BM_NameHash(benchmark::State& state) {
  const Name name =
      Name::must_parse("0123456789ABCDEFGHIJKLMNOPQRSTUV.d12345.tld0001");
  AllocScope allocs(state);
  for (auto _ : state) benchmark::DoNotOptimize(name.hash());
}
BENCHMARK(BM_NameHash);

}  // namespace

BENCHMARK_MAIN();
