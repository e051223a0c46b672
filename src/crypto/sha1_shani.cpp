// Single-stream SHA-1 compression on the x86 SHA extensions (SHA-NI):
// sha1rnds4 runs four rounds per instruction, sha1msg1/sha1msg2 expand the
// message schedule and sha1nexte derives the next E. Compiled with
// -msha -msse4.1 (see src/crypto/CMakeLists.txt); the dispatcher in
// sha1.cpp only calls in here after a CPUID check.
#include "crypto/sha1.hpp"

#if defined(ZH_HAVE_SHANI)

#include <immintrin.h>

#include <utility>

namespace zh::crypto::detail {
namespace {

/// Registers of one compression: ABCD (A in the top lane), the E value
/// feeding the next four rounds, ABCD as it stood before the previous four
/// rounds (sha1nexte derives E from its A), and the message schedule
/// W[g..g+3] in a four-slot ring indexed g % 4.
struct Rounds {
  __m128i abcd;
  __m128i e;
  __m128i abcd_prev;
  __m128i w[4];
};

/// Rounds 4g .. 4g+3, with the schedule work for later groups interleaved
/// the way the SHA-NI instructions pipeline: W[g+1] is finished here
/// (sha1msg2), W[g+2] gets its W[g] term (xor) and W[g+3] its first step
/// (sha1msg1). Every step reads W[g] and writes a different slot.
template <int G>
inline void four_rounds(Rounds& r, const std::uint8_t* block) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  if constexpr (G < 4)
    r.w[G] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        byte_swap);
  __m128i e;
  if constexpr (G == 0)
    e = _mm_add_epi32(r.e, r.w[0]);
  else
    e = _mm_sha1nexte_epu32(r.abcd_prev, r.w[G % 4]);
  if constexpr (G >= 3 && G <= 18)
    r.w[(G + 1) % 4] = _mm_sha1msg2_epu32(r.w[(G + 1) % 4], r.w[G % 4]);
  r.abcd_prev = r.abcd;
  r.abcd = _mm_sha1rnds4_epu32(r.abcd, e, G / 5);
  if constexpr (G >= 1 && G <= 16)
    r.w[(G - 1) % 4] = _mm_sha1msg1_epu32(r.w[(G - 1) % 4], r.w[G % 4]);
  if constexpr (G >= 2 && G <= 17)
    r.w[(G - 2) % 4] = _mm_xor_si128(r.w[(G - 2) % 4], r.w[G % 4]);
}

template <int... G>
inline void all_rounds(Rounds& r, const std::uint8_t* block,
                       std::integer_sequence<int, G...>) noexcept {
  (four_rounds<G>(r, block), ...);
}

}  // namespace

void sha1_compress_shani(std::uint32_t state[5],
                         const std::uint8_t* block) noexcept {
  Rounds r;
  // State words A..D load low-to-high; the instructions want A on top.
  r.abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  r.e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  const __m128i abcd_in = r.abcd;
  const __m128i e_in = r.e;

  all_rounds(r, block, std::make_integer_sequence<int, 20>{});

  // E after round 79 is rotl(A before the last four rounds, 30); adding the
  // incoming E finishes the feed-forward for that word.
  const __m128i e_out = _mm_sha1nexte_epu32(r.abcd_prev, e_in);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(_mm_add_epi32(r.abcd, abcd_in), 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e_out, 3));
}

}  // namespace zh::crypto::detail

#endif  // ZH_HAVE_SHANI
