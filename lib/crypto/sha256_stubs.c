/* SHA-256 block compression (FIPS 180-4) for Bp_crypto.Sha256.

   Two kernels over the same calling convention: a portable C one, and
   on x86 one built on the SHA extensions (SHA-NI). The OCaml side asks
   [bp_sha256_has_sha_ni] once, at module initialisation, and passes the
   chosen kernel to every [bp_sha256_compress] call; nothing here keeps
   mutable state, so any number of domains may hash at once.

   The chaining value lives on the OCaml heap as an 8-element [int array]
   of 32-bit words. It is copied into a local uint32_t array, the blocks
   are compressed, and the words are written back as immediate ints, so
   the stubs never allocate and never need the write barrier. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define BP_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t k256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/* ---------- portable kernel ---------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) |
         ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void compress_portable(uint32_t s[8], const unsigned char *p,
                              size_t blocks)
{
  uint32_t w[64];
  for (; blocks > 0; blocks--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t x = w[i - 15], y = w[i - 2];
      uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
      uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) +
                    (g ^ (e & (f ^ g))) + k256[i] + w[i];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) +
                    ((a & b) | (c & (a | b)));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += h;
  }
}

/* ---------- SHA-NI kernel ---------- */

#ifdef BP_SHA_NI

/* Leaf 7 EBX bit 29 is SHA; the kernel also uses SSSE3 (leaf 1 ECX bit
   9) and SSE4.1 (leaf 1 ECX bit 19). */
static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & (1u << 29)) != 0;
}

/* Four rounds on schedule vector [cur] (words 4g..4g+3), then the
   schedule steps this group owes: msg2 finishes [nxt] (words
   4g+4..4g+7) from [cur] and the previous vector [prv], and msg1 starts
   [prv] towards words 4g+12..4g+15. The [g] tests fold at compile
   time. */
#define QUAD(g, cur, nxt, prv)                                               \
  do {                                                                       \
    __m128i m_ = _mm_add_epi32(                                              \
        cur, _mm_loadu_si128((const __m128i *)&k256[4 * (g)]));              \
    s1 = _mm_sha256rnds2_epu32(s1, s0, m_);                                  \
    if ((g) >= 3 && (g) <= 14)                                               \
      nxt = _mm_sha256msg2_epu32(                                            \
          _mm_add_epi32(nxt, _mm_alignr_epi8(cur, prv, 4)), cur);            \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(m_, 0x0E));         \
    if ((g) >= 1 && (g) <= 12) prv = _mm_sha256msg1_epu32(prv, cur);         \
  } while (0)

__attribute__((target("sha,sse4.1,ssse3"))) static void
compress_sha_ni(uint32_t s[8], const unsigned char *p, size_t blocks)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  /* The rounds instruction wants the state as ABEF and CDGH. */
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&s[0]), 0xB1);
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&s[4]), 0x1B);
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);
  s1 = _mm_blend_epi16(s1, t, 0xF0);
  for (; blocks > 0; blocks--, p += 64) {
    __m128i abef = s0, cdgh = s1;
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i w1 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i w2 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i w3 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QUAD(0, w0, w1, w3); QUAD(1, w1, w2, w0); QUAD(2, w2, w3, w1); QUAD(3, w3, w0, w2);
    QUAD(4, w0, w1, w3); QUAD(5, w1, w2, w0); QUAD(6, w2, w3, w1); QUAD(7, w3, w0, w2);
    QUAD(8, w0, w1, w3); QUAD(9, w1, w2, w0); QUAD(10, w2, w3, w1); QUAD(11, w3, w0, w2);
    QUAD(12, w0, w1, w3); QUAD(13, w1, w2, w0); QUAD(14, w2, w3, w1); QUAD(15, w3, w0, w2);
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
  t = _mm_shuffle_epi32(s0, 0x1B);
  s1 = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)&s[0], _mm_blend_epi16(t, s1, 0xF0));
  _mm_storeu_si128((__m128i *)&s[4], _mm_alignr_epi8(s1, t, 8));
}

#endif

/* ---------- OCaml entry points ---------- */

value bp_sha256_has_sha_ni(value unit)
{
  (void)unit;
#ifdef BP_SHA_NI
  return Val_bool(cpu_has_sha_ni());
#else
  return Val_false;
#endif
}

/* [kernel] is the OCaml constant constructor: 0 portable, 1 SHA-NI. The
   OCaml caller has already checked that [off + 64 * blocks] lies within
   [buf]. */
value bp_sha256_compress(value kernel, value state, value buf, value off,
                         value blocks)
{
  uint32_t s[8];
  const unsigned char *p = Bytes_val(buf) + Long_val(off);
  size_t n = (size_t)Long_val(blocks);
  for (int i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(state, i));
#ifdef BP_SHA_NI
  if (Long_val(kernel) == 1)
    compress_sha_ni(s, p, n);
  else
#endif
    compress_portable(s, p, n);
  (void)kernel;
  for (int i = 0; i < 8; i++) Field(state, i) = Val_long(s[i]);
  return Val_unit;
}
