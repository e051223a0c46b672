// Instrumentation for hash-work accounting.
//
// CVE-2023-50868 ("NSEC3 closest encloser proof can exhaust CPU") inflates
// the number of hash compression-function invocations a validating resolver
// performs. Gruza et al. (WOOT'24) quantified the impact in CPU instruction
// counts; instruction count is proportional to compression invocations on
// every real implementation, so this meter is the simulation-side equivalent
// used by bench_cve_cost and by the resolver's per-query cost reports.
#pragma once

#include <cstdint>

namespace zh::crypto {

/// Thread-local counters of primitive hash work performed.
///
/// The counters are monotonically increasing; measure a region by taking a
/// snapshot before and after. All hash primitives in zh::crypto tick these.
struct CostMeter {
  /// Number of *logical* SHA-1 compression-function invocations (64-byte
  /// blocks): what a message-at-a-time implementation would have executed.
  /// This is the currency of every amplification figure and of simtime
  /// service costs, and it is invariant across SHA-1 kernels (sha1.hpp)
  /// and the NSEC3 digest memo (nsec3_memo.hpp) — each credits the logical
  /// count even when it skips or restructures the physical work.
  static std::uint64_t sha1_blocks() noexcept { return tls().sha1; }
  /// Number of SHA-1 compression blocks *actually executed* on this thread.
  /// Equal to sha1_blocks() unless a digest-memo hit skipped an NSEC3 hash.
  static std::uint64_t sha1_physical_blocks() noexcept {
    return tls().sha1_physical;
  }
  /// Number of SHA-256-family compression invocations (64/128-byte blocks).
  static std::uint64_t sha2_blocks() noexcept { return tls().sha2; }
  /// Number of complete NSEC3 hash computations (one per hashed name).
  static std::uint64_t nsec3_hashes() noexcept { return tls().nsec3; }

  static void add_sha1_blocks(std::uint64_t n) noexcept { tls().sha1 += n; }
  static void add_sha1_physical(std::uint64_t n) noexcept {
    tls().sha1_physical += n;
  }
  static void add_sha2_blocks(std::uint64_t n) noexcept { tls().sha2 += n; }
  static void add_nsec3_hash() noexcept { ++tls().nsec3; }
  /// Bulk credit — used by the parallel campaign engine and the shard merge
  /// to attribute their workers' (thread-local) hash work back to the
  /// calling thread.
  static void add_nsec3_hashes(std::uint64_t n) noexcept { tls().nsec3 += n; }

  /// Resets all counters on the calling thread (test/bench convenience).
  static void reset() noexcept { tls() = Counters{}; }

 private:
  struct Counters {
    std::uint64_t sha1 = 0;
    std::uint64_t sha1_physical = 0;
    std::uint64_t sha2 = 0;
    std::uint64_t nsec3 = 0;
  };
  static Counters& tls() noexcept {
    thread_local Counters counters;
    return counters;
  }
};

/// RAII snapshot: measures SHA-1 block work across a scope.
class Sha1WorkScope {
 public:
  Sha1WorkScope() noexcept : start_(CostMeter::sha1_blocks()) {}
  /// Blocks hashed since construction.
  std::uint64_t elapsed() const noexcept {
    return CostMeter::sha1_blocks() - start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace zh::crypto
