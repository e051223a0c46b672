// SHA-1 kernel registry and multi-buffer SHA-1. The batch path hashes
// batches of *independent* messages in parallel SIMD lanes (SSSE3 4-wide,
// AVX2 8-wide, scalar fallback), selected once per process by CPUID —
// overridable with ZH_SHA1_IMPL / set_sha1_impl() so the forced-
// implementation test matrix can run every kernel on one host. The
// single-stream path (Sha1, nsec3_hash) runs one message at a time on SHA-NI
// wherever the host has it; ZH_SHA1_IMPL=scalar forces scalar there too.
//
// The contract that makes a faster physical kernel safe in this
// reproduction: *logical* hash-work accounting (CostMeter::sha1_blocks, the
// currency of CVE-2023-50868 amplification figures and of simtime service
// costs) is byte-identical across implementations. Every batch ticks exactly
// the compression-block count a message-at-a-time scalar Sha1 would have
// ticked; only CostMeter::sha1_physical_blocks() reflects how the work was
// actually executed. See docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "crypto/sha1.hpp"

namespace zh::crypto {

/// Available SHA-1 batch kernel implementations, narrowest first. kScalar
/// also turns off the single-stream SHA-NI kernel.
enum class Sha1Impl : std::uint8_t {
  kScalar = 0,  // one message at a time (always available)
  kSsse3 = 1,   // 4 lanes of 32-bit words in XMM registers
  kAvx2 = 2,    // 8 lanes of 32-bit words in YMM registers
};

/// "scalar" / "ssse3" / "avx2".
const char* sha1_impl_name(Sha1Impl impl) noexcept;

/// Inverse of sha1_impl_name; nullopt for anything else.
std::optional<Sha1Impl> parse_sha1_impl(std::string_view name) noexcept;

/// True if `impl` was compiled in AND the CPU advertises the ISA.
bool sha1_impl_supported(Sha1Impl impl) noexcept;

/// The widest supported implementation on this host.
Sha1Impl sha1_best_impl() noexcept;

/// SIMD lanes `impl` advances per compression step (1, 4 or 8).
std::size_t sha1_impl_lanes(Sha1Impl impl) noexcept;

/// The implementation batch hashing currently dispatches to. First use reads
/// ZH_SHA1_IMPL; an unknown or unsupported value is rejected with a stderr
/// diagnostic and the best supported implementation is used instead.
Sha1Impl sha1_impl() noexcept;

/// Forces the dispatch target (tests / bench grids). Unsupported requests
/// are clamped to sha1_best_impl(). Returns the implementation in effect.
Sha1Impl set_sha1_impl(Sha1Impl impl) noexcept;

/// One unmetered single-stream compression, as Sha1 and nsec3_hash run it.
using Sha1CompressFn = void (*)(std::uint32_t state[5],
                                const std::uint8_t* block) noexcept;

/// The single-stream kernel: SHA-NI when it was compiled in, the CPU has it
/// and sha1_impl() is not kScalar; sha1_compress_scalar otherwise.
Sha1CompressFn sha1_single_compress() noexcept;

/// Hashes `messages.size()` independent messages, writing digest i for
/// message i into `out[i]`. Digests are bit-identical to Sha1::hash() for
/// every implementation; ragged batches (lanes of unequal length) refill
/// finished lanes so utilisation stays high. Ticks CostMeter logical and
/// physical SHA-1 blocks by the same amount — the batch changes *when* work
/// happens, never how much is accounted.
void sha1_multi_hash(std::span<const std::span<const std::uint8_t>> messages,
                     Sha1::Digest* out);

/// Applies `digest = SHA-1(digest || suffix)` to every digest `iterations`
/// times, lane-parallel. This is exactly the RFC 5155 §5 re-hash step (the
/// CVE-2023-50868 cost multiplier): after the first hash of a name, every
/// further iteration is a fixed-length message, so all lanes stay in perfect
/// lockstep with no re-packing. Cost accounting as sha1_multi_hash.
void sha1_multi_iterate(std::span<Sha1::Digest> digests,
                        std::span<const std::uint8_t> suffix,
                        std::uint16_t iterations);

/// sha1_multi_iterate for one digest through the single-stream kernel: the
/// `iterations` re-hashes run on one pre-padded `digest ‖ suffix ‖ pad`
/// buffer. Same digests and the same logical and physical block count as
/// hashing each round through Sha1.
void sha1_iterate(Sha1::Digest& digest, std::span<const std::uint8_t> suffix,
                  std::uint16_t iterations) noexcept;

/// Thread-local physical batching telemetry (the trace-layer `sha1_batch`
/// metric): how many batch calls ran and how many messages they covered.
/// Purely observational — never part of the determinism contract's logical
/// cost surface.
struct Sha1BatchMeter {
  static std::uint64_t batches() noexcept { return tls().batches; }
  static std::uint64_t messages() noexcept { return tls().messages; }
  static void add_batch(std::uint64_t message_count) noexcept {
    ++tls().batches;
    tls().messages += message_count;
  }
  static void reset() noexcept { tls() = Counters{}; }

 private:
  struct Counters {
    std::uint64_t batches = 0;
    std::uint64_t messages = 0;
  };
  static Counters& tls() noexcept {
    thread_local Counters counters;
    return counters;
  }
};

namespace detail {

/// Lane-parallel compression kernels. State is struct-of-arrays:
/// `state[word][lane]`; `blocks[lane]` points at that lane's 64-byte block
/// and must be non-null for every lane the kernel covers (feed inactive
/// lanes a dummy block and discard their state).
inline constexpr std::size_t kMaxLanes = 8;
using LaneState = std::uint32_t[5][kMaxLanes];

void sha1_compress_lane_scalar(LaneState state, const std::uint8_t* block,
                               std::size_t lane) noexcept;
#if defined(ZH_HAVE_SHA1_SSSE3)
void sha1_compress_x4_ssse3(LaneState state,
                            const std::uint8_t* const blocks[4]) noexcept;
#endif
#if defined(ZH_HAVE_SHA1_AVX2)
void sha1_compress_x8_avx2(LaneState state,
                           const std::uint8_t* const blocks[8]) noexcept;
#endif
#if defined(ZH_HAVE_SHA1_SHANI)
/// Drop-in for sha1_compress_scalar on the SHA extensions.
void sha1_compress_shani(std::uint32_t state[5],
                         const std::uint8_t* block) noexcept;
#endif

}  // namespace detail

}  // namespace zh::crypto
