// SHA-256 compression using the x86 SHA extensions (SHA-NI). Structure
// follows the well-known Intel reference flow: the message schedule lives in
// four XMM registers advanced with SHA256MSG1/MSG2, and each four-round group
// runs two SHA256RNDS2 operations on the (ABEF, CDGH) state pair.
//
// This translation unit is the only one compiled with -msha; callers must
// check ShaNiSupported() before using CompressShaNi.
#include "crypto/sha256_compress.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

namespace dcert::crypto::internal {

bool ShaNiSupported() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

namespace {

inline __m128i LoadK(int group) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * group]));
}

}  // namespace

void CompressShaNi(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t n) {
  const __m128i kByteSwapMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Repack the linear state words into the (ABEF, CDGH) register layout.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);    // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);         // CDGH

  while (n-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, msgtmp;
    __m128i w0, w1, w2, w3;

    // Rounds 0-3.
    w0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 0)),
        kByteSwapMask);
    msg = _mm_add_epi32(w0, LoadK(0));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7.
    w1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16)),
        kByteSwapMask);
    msg = _mm_add_epi32(w1, LoadK(1));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    w0 = _mm_sha256msg1_epu32(w0, w1);

    // Rounds 8-11.
    w2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 32)),
        kByteSwapMask);
    msg = _mm_add_epi32(w2, LoadK(2));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    w1 = _mm_sha256msg1_epu32(w1, w2);

    // Rounds 12-15 load the last message quad; from here each group also
    // advances the schedule: wb += alignr(wa, wd, 4); wb = msg2(wb, wa);
    // wd = msg1(wd, wa).
    w3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 48)),
        kByteSwapMask);

#define DCERT_SHA_GROUP(group, wa, wb, wd)                   \
  msg = _mm_add_epi32(wa, LoadK(group));                     \
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);       \
  msgtmp = _mm_alignr_epi8(wa, wd, 4);                       \
  wb = _mm_add_epi32(wb, msgtmp);                            \
  wb = _mm_sha256msg2_epu32(wb, wa);                         \
  msg = _mm_shuffle_epi32(msg, 0x0E);                        \
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);       \
  wd = _mm_sha256msg1_epu32(wd, wa);

    DCERT_SHA_GROUP(3, w3, w0, w2)    // rounds 12-15
    DCERT_SHA_GROUP(4, w0, w1, w3)    // rounds 16-19
    DCERT_SHA_GROUP(5, w1, w2, w0)    // rounds 20-23
    DCERT_SHA_GROUP(6, w2, w3, w1)    // rounds 24-27
    DCERT_SHA_GROUP(7, w3, w0, w2)    // rounds 28-31
    DCERT_SHA_GROUP(8, w0, w1, w3)    // rounds 32-35
    DCERT_SHA_GROUP(9, w1, w2, w0)    // rounds 36-39
    DCERT_SHA_GROUP(10, w2, w3, w1)   // rounds 40-43
    DCERT_SHA_GROUP(11, w3, w0, w2)   // rounds 44-47
    DCERT_SHA_GROUP(12, w0, w1, w3)   // rounds 48-51
#undef DCERT_SHA_GROUP

    // Rounds 52-55: final msg2 for w2, no more msg1 needed.
    msg = _mm_add_epi32(w1, LoadK(13));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(w1, w0, 4);
    w2 = _mm_add_epi32(w2, msgtmp);
    w2 = _mm_sha256msg2_epu32(w2, w1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(w2, LoadK(14));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(w2, w1, 4);
    w3 = _mm_add_epi32(w3, msgtmp);
    w3 = _mm_sha256msg2_epu32(w3, w2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(w3, LoadK(15));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    blocks += 64;
  }

  // Repack registers back into linear state words.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

}  // namespace dcert::crypto::internal

#else  // non-x86 fallback

namespace dcert::crypto::internal {

bool ShaNiSupported() { return false; }

void CompressShaNi(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t n) {
  CompressScalar(state, blocks, n);
}

}  // namespace dcert::crypto::internal

#endif
