/* The C surface of Bp_crypto, declared in [native.mli]: SHA-256 block
   compression (FIPS 180-4), one-shot digests and HMAC-SHA256 (RFC 2104)
   from prepared pad midstates for Sha256 and Hmac.

   There is a portable C kernel and, on x86, one built on the SHA
   extensions (SHA-NI). The OCaml side asks the [cpuid] probe once, at
   module initialisation, and passes the chosen kernel to every call.
   Nothing here keeps mutable state, and every table is [static const],
   so any number of domains may hash at once.

   The SHA-256 chaining value lives on the OCaml heap as an 8-element
   [int array] of 32-bit words. It is copied into a local uint32_t array,
   the blocks are compressed, and the words are written back as immediate
   ints. The one-shot digest and HMAC stubs keep their whole state on the
   C stack and write the result into a caller-allocated [bytes]. So the
   stubs never allocate and never need the write barrier. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define BP_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

/* ---------- SHA-256: portable kernel ---------- */

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

/* ---------- SHA-256: SHA-NI kernel ---------- */

#ifdef BP_X86

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

/* ---------- SHA-256: whole messages ---------- */

static void compress(long kernel, uint32_t s[8], const unsigned char *p,
                     size_t blocks)
{
#ifdef BP_X86
  if (kernel == 1) {
    compress_sha_ni(s, p, blocks);
    return;
  }
#endif
  (void)kernel;
  compress_portable(s, p, blocks);
}

/* Absorb the [n] bytes at [p] into the chaining value [s], which has
   already absorbed [prefix] bytes (a whole number of blocks), then pad
   and fold the final one or two blocks. */
static void finish(long kernel, uint32_t s[8], uint64_t prefix,
                   const unsigned char *p, size_t n)
{
  unsigned char tail[128];
  size_t whole = n / 64, rest = n % 64;
  size_t blocks = rest + 1 + 8 <= 64 ? 1 : 2;
  uint64_t bits = (prefix + n) * 8;
  if (whole > 0) compress(kernel, s, p, whole);
  memcpy(tail, p + 64 * whole, rest);
  tail[rest] = 0x80;
  memset(tail + rest + 1, 0, 64 * blocks - 8 - (rest + 1));
  for (int i = 0; i < 8; i++)
    tail[64 * blocks - 1 - i] = (unsigned char)(bits >> (8 * i));
  compress(kernel, s, tail, blocks);
}

static void store_digest(unsigned char *out, const uint32_t s[8])
{
  for (int i = 0; i < 8; i++) {
    out[4 * i] = (unsigned char)(s[i] >> 24);
    out[4 * i + 1] = (unsigned char)(s[i] >> 16);
    out[4 * i + 2] = (unsigned char)(s[i] >> 8);
    out[4 * i + 3] = (unsigned char)s[i];
  }
}

/* A midstate (see Sha256.midstate) is the 8 chaining words big-endian,
   then the absorbed byte count as a 64-bit big-endian integer. */
static uint64_t load_midstate(uint32_t s[8], const unsigned char *m)
{
  uint64_t len = 0;
  for (int i = 0; i < 8; i++) s[i] = load_be32(m + 4 * i);
  for (int i = 0; i < 8; i++) len = (len << 8) | m[32 + i];
  return len;
}

/* HMAC's two passes: the inner hash of [msg] resumed from the inner pad
   midstate, then the outer hash of that digest resumed from the outer
   pad midstate. */
static void hmac(long kernel, const unsigned char *inner,
                 const unsigned char *outer, const unsigned char *msg,
                 size_t n, unsigned char tag[32])
{
  uint32_t s[8];
  uint64_t prefix = load_midstate(s, inner);
  finish(kernel, s, prefix, msg, n);
  store_digest(tag, s);
  prefix = load_midstate(s, outer);
  finish(kernel, s, prefix, tag, 32);
  store_digest(tag, s);
}

/* ---------- OCaml entry points ---------- */

value bp_sha256_has_sha_ni(value unit)
{
  (void)unit;
#ifdef BP_X86
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
#ifdef BP_X86
  if (Long_val(kernel) == 1)
    compress_sha_ni(s, p, n);
  else
#endif
    compress_portable(s, p, n);
  (void)kernel;
  for (int i = 0; i < 8; i++) Field(state, i) = Val_long(s[i]);
  return Val_unit;
}

/* [src] is the whole message; [out] is a 32-byte [bytes]. */
value bp_sha256_digest(value kernel, value src, value out)
{
  uint32_t s[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  finish(Long_val(kernel), s, 0, (const unsigned char *)String_val(src),
         caml_string_length(src));
  store_digest(Bytes_val(out), s);
  return Val_unit;
}

/* [inner] and [outer] are 40-byte midstates (the OCaml caller checks);
   [out] is a 32-byte [bytes]. */
value bp_hmac_sha256(value kernel, value inner, value outer, value msg,
                     value out)
{
  hmac(Long_val(kernel), (const unsigned char *)String_val(inner),
       (const unsigned char *)String_val(outer),
       (const unsigned char *)String_val(msg), caml_string_length(msg),
       Bytes_val(out));
  return Val_unit;
}

/* Whether [tag] is the HMAC of [msg]. A tag of the wrong length is
   rejected outright (the length is public); otherwise every byte is
   compared, so the time taken does not depend on where they differ. */
value bp_hmac_sha256_verify(value kernel, value inner, value outer,
                            value msg, value tag)
{
  unsigned char want[32];
  const unsigned char *got = (const unsigned char *)String_val(tag);
  unsigned char diff = 0;
  if (caml_string_length(tag) != 32) return Val_false;
  hmac(Long_val(kernel), (const unsigned char *)String_val(inner),
       (const unsigned char *)String_val(outer),
       (const unsigned char *)String_val(msg), caml_string_length(msg), want);
  for (int i = 0; i < 32; i++) diff |= (unsigned char)(want[i] ^ got[i]);
  return Val_bool(diff == 0);
}
