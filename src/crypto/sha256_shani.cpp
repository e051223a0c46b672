// Single-block SHA-256 compression on the x86 SHA extensions (SHA-NI):
// sha256rnds2 runs two rounds per instruction on the state split as ABEF
// and CDGH, and sha256msg1/sha256msg2 expand the message schedule. Compiled
// with -msha -msse4.1 (see src/crypto/CMakeLists.txt); the dispatcher in
// sha2.cpp only calls in here after a CPUID check.
#include "crypto/sha2.hpp"

#if defined(ZH_HAVE_SHANI)

#include <immintrin.h>

#include <utility>

namespace zh::crypto::detail {
namespace {

/// Registers of one compression: the state as ABEF and CDGH (A and C in
/// the top lanes) and the message schedule W[4g..4g+3] in a four-slot ring
/// indexed g % 4.
struct Rounds {
  __m128i abef;
  __m128i cdgh;
  __m128i w[4];
};

/// Rounds 4g .. 4g+3, with the schedule work for later groups interleaved
/// the way the SHA-NI instructions pipeline: W[g+1] gets its W[t-7] terms
/// (from W[g-1] and W[g]) and is finished by sha256msg2, then W[g+3] gets
/// its first step (sha256msg1), which reuses the slot of W[g-1] after its
/// last read.
template <int G>
inline void four_rounds(Rounds& r, const std::uint8_t* block) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  if constexpr (G < 4)
    r.w[G] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        byte_swap);
  __m128i wk = _mm_add_epi32(
      r.w[G % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                      kSha256RoundConstants + 4 * G)));
  r.cdgh = _mm_sha256rnds2_epu32(r.cdgh, r.abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    const __m128i w_minus_7 =
        _mm_alignr_epi8(r.w[G % 4], r.w[(G + 3) % 4], 4);
    r.w[(G + 1) % 4] = _mm_sha256msg2_epu32(
        _mm_add_epi32(r.w[(G + 1) % 4], w_minus_7), r.w[G % 4]);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  r.abef = _mm_sha256rnds2_epu32(r.abef, r.cdgh, wk);
  if constexpr (G >= 1 && G <= 12)
    r.w[(G + 3) % 4] = _mm_sha256msg1_epu32(r.w[(G + 3) % 4], r.w[G % 4]);
}

template <int... G>
inline void all_rounds(Rounds& r, const std::uint8_t* block,
                       std::integer_sequence<int, G...>) noexcept {
  (four_rounds<G>(r, block), ...);
}

}  // namespace

void sha256_compress_shani(std::uint32_t state[8],
                           const std::uint8_t* block) noexcept {
  // State words A..H load low-to-high; the instructions want ABEF and CDGH
  // with the first-named word on top.
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  Rounds r;
  r.abef = _mm_alignr_epi8(dcba, efgh, 8);
  r.cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  const __m128i abef_in = r.abef;
  const __m128i cdgh_in = r.cdgh;

  all_rounds(r, block, std::make_integer_sequence<int, 16>{});

  const __m128i feba = _mm_shuffle_epi32(_mm_add_epi32(r.abef, abef_in), 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(_mm_add_epi32(r.cdgh, cdgh_in), 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace zh::crypto::detail

#endif  // ZH_HAVE_SHANI
