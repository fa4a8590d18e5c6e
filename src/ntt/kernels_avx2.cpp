// AVX2 kernel set: 4-lane u64 butterflies and limb ops.
//
// avx2_kernel() is scalar_kernel()'s table with every entry overridden
// except reduce_span and shoup_mul_acc_lazy2: their AVX2 kernels lost to
// scalar at n=4096 in every measured rep (README, "SIMD NTT kernels"), so
// the table keeps scalar's.
//
// AVX2 has no 64x64 multiply, so the Shoup/Barrett products are assembled
// from 32x32 partial products (vpmuludq) — mul64_lo / mul64_hi below.  The
// butterflies use the same lazy-reduction ranges as the scalar kernels
// ([0, 4p) forward, [0, 2p) inverse, one final correction sweep), and since
// every kernel fully reduces on exit, outputs are bit-identical to scalar.
//
// The last two forward stages (butterfly gaps 2 and 1) and the first two
// inverse stages interleave butterfly operands within a single vector; they
// are handled with 128-bit-lane permutes / 64-bit unpacks rather than
// falling back to scalar, so the whole transform stays vectorized.
//
// Bounds: requires p < 2^61.  Forward/inverse need 4p < 2^64; the Barrett
// pointwise product drops three carry terms of the 256-bit quotient, which
// costs at most 4 extra multiples of p in the remainder (r < 5p), corrected
// by the conditional-subtract chain 4p / 2p / p.  dispatch_kernel() routes
// larger moduli to the scalar set.
//
// This file is compiled with -mavx2 when the toolchain supports it (see
// CMakeLists.txt); on other toolchains avx2_kernel() returns nullptr.
#include "ntt/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace primer {

namespace {

inline __m256i load4(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store4(u64* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline __m256i bcast(u64 x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

// Low 64 bits of the unsigned 64x64 lane product.
inline __m256i mul64_lo(__m256i x, __m256i y) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), y),
                       _mm256_mul_epu32(x, _mm256_srli_epi64(y, 32)));
  return _mm256_add_epi64(_mm256_mul_epu32(x, y),
                          _mm256_slli_epi64(cross, 32));
}

// High 64 bits of the unsigned 64x64 lane product (exact).
inline __m256i mul64_hi(__m256i x, __m256i y) {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i ll = _mm256_mul_epu32(x, y);
  const __m256i lh = _mm256_mul_epu32(x, yh);
  const __m256i hl = _mm256_mul_epu32(xh, y);
  const __m256i hh = _mm256_mul_epu32(xh, yh);
  const __m256i carry = _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                                        _mm256_and_si256(lh, lo32)),
                       _mm256_and_si256(hl, lo32)),
      32);
  return _mm256_add_epi64(
      _mm256_add_epi64(hh, carry),
      _mm256_add_epi64(_mm256_srli_epi64(lh, 32), _mm256_srli_epi64(hl, 32)));
}

// a >= t ? a - t : a, unsigned (sign-flip trick around the signed compare).
inline __m256i csub(__m256i a, __m256i t) {
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(t, sign),
                                        _mm256_xor_si256(a, sign));
  return _mm256_sub_epi64(a, _mm256_andnot_si256(lt, t));
}

// Shoup multiply without correction: w*x - hi(x*wq)*p, in [0, 2p) for w < p.
inline __m256i shoup_lazy(__m256i x, __m256i w, __m256i wq, __m256i p) {
  const __m256i q = mul64_hi(x, wq);
  return _mm256_sub_epi64(mul64_lo(w, x), mul64_lo(q, p));
}

// Forward butterfly on 4 independent (X, Y) pairs: X in [0, 4p) -> cond
// subtract 2p; Y -> T = w*Y lazily; out (X+T, X-T+2p), both in [0, 4p).
inline void fwd_butterfly(__m256i& X, __m256i& Y, __m256i w, __m256i wq,
                          __m256i p, __m256i two_p) {
  const __m256i x = csub(X, two_p);
  const __m256i t = shoup_lazy(Y, w, wq, p);
  X = _mm256_add_epi64(x, t);
  Y = _mm256_add_epi64(_mm256_sub_epi64(x, t), two_p);
}

// Inverse butterfly: inputs in [0, 2p), outputs in [0, 2p).
inline void inv_butterfly(__m256i& X, __m256i& Y, __m256i w, __m256i wq,
                          __m256i p, __m256i two_p) {
  const __m256i s = csub(_mm256_add_epi64(X, Y), two_p);
  const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(X, Y), two_p);
  X = s;
  Y = shoup_lazy(d, w, wq, p);
}

// [w0, w1] -> [w0, w0, w1, w1]
inline __m256i spread_pair(const u64* w) {
  const __m128i pair =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
  return _mm256_permute4x64_epi64(_mm256_castsi128_si256(pair), 0x50);
}

// Butterfly walk shared by fwd_ntt_avx2 (fully reduced) and
// fwd_ntt_lazy_avx2 (output left in [0, 4p)).
void fwd_ntt_lazy_avx2(u64* a, std::size_t n, const u64* w,
                       const u64* w_shoup, u64 p) {
  if (n < 8) {
    scalar_kernel().fwd_ntt_lazy(a, n, w, w_shoup, p);
    return;
  }
  const __m256i vp = bcast(p);
  const __m256i v2p = bcast(2 * p);

  // Stages with butterfly gap t >= 4: straight 4-wide loads.
  std::size_t t = n;
  std::size_t m = 1;
  for (; t > 4; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      const __m256i vw = bcast(w[m + i]);
      const __m256i vwq = bcast(w_shoup[m + i]);
      for (std::size_t j = 0; j < t; j += 4) {
        __m256i X = load4(x + j);
        __m256i Y = load4(y + j);
        fwd_butterfly(X, Y, vw, vwq, vp, v2p);
        store4(x + j, X);
        store4(y + j, Y);
      }
    }
  }

  // Gap t == 2 (m = n/4): blocks [x0 x1 y0 y1]; two blocks per iteration.
  m = n / 4;
  for (std::size_t i = 0; i < m; i += 2) {
    u64* base = a + 4 * i;
    const __m256i v0 = load4(base);
    const __m256i v1 = load4(base + 4);
    __m256i X = _mm256_permute2x128_si256(v0, v1, 0x20);
    __m256i Y = _mm256_permute2x128_si256(v0, v1, 0x31);
    const __m256i vw = spread_pair(w + m + i);
    const __m256i vwq = spread_pair(w_shoup + m + i);
    fwd_butterfly(X, Y, vw, vwq, vp, v2p);
    store4(base, _mm256_permute2x128_si256(X, Y, 0x20));
    store4(base + 4, _mm256_permute2x128_si256(X, Y, 0x31));
  }

  // Gap t == 1 (m = n/2): adjacent pairs; unpack de-interleaves 4 pairs into
  // lane order [i, i+2, i+1, i+3], so twiddles get the matching 0xD8 permute.
  m = n / 2;
  for (std::size_t i = 0; i < m; i += 4) {
    u64* base = a + 2 * i;
    const __m256i v0 = load4(base);
    const __m256i v1 = load4(base + 4);
    __m256i X = _mm256_unpacklo_epi64(v0, v1);
    __m256i Y = _mm256_unpackhi_epi64(v0, v1);
    const __m256i vw = _mm256_permute4x64_epi64(load4(w + m + i), 0xD8);
    const __m256i vwq =
        _mm256_permute4x64_epi64(load4(w_shoup + m + i), 0xD8);
    fwd_butterfly(X, Y, vw, vwq, vp, v2p);
    store4(base, _mm256_unpacklo_epi64(X, Y));
    store4(base + 4, _mm256_unpackhi_epi64(X, Y));
  }
}

void fwd_ntt_avx2(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                  u64 p) {
  if (n < 8) {
    scalar_kernel().fwd_ntt(a, n, w, w_shoup, p);
    return;
  }
  fwd_ntt_lazy_avx2(a, n, w, w_shoup, p);
  // Single correction sweep: [0, 4p) -> [0, p).
  const __m256i vp = bcast(p);
  const __m256i v2p = bcast(2 * p);
  for (std::size_t j = 0; j < n; j += 4) {
    __m256i x = load4(a + j);
    x = csub(x, v2p);
    x = csub(x, vp);
    store4(a + j, x);
  }
}

void inv_ntt_avx2(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                  u64 n_inv, u64 n_inv_shoup, u64 p) {
  if (n < 8) {
    scalar_kernel().inv_ntt(a, n, w, w_shoup, n_inv, n_inv_shoup, p);
    return;
  }
  const __m256i vp = bcast(p);
  const __m256i v2p = bcast(2 * p);

  // Gap t == 1 (h = n/2): adjacent pairs, same lane plan as the forward
  // t == 1 stage.
  std::size_t h = n / 2;
  for (std::size_t i = 0; i < h; i += 4) {
    u64* base = a + 2 * i;
    const __m256i v0 = load4(base);
    const __m256i v1 = load4(base + 4);
    __m256i X = _mm256_unpacklo_epi64(v0, v1);
    __m256i Y = _mm256_unpackhi_epi64(v0, v1);
    const __m256i vw = _mm256_permute4x64_epi64(load4(w + h + i), 0xD8);
    const __m256i vwq =
        _mm256_permute4x64_epi64(load4(w_shoup + h + i), 0xD8);
    inv_butterfly(X, Y, vw, vwq, vp, v2p);
    store4(base, _mm256_unpacklo_epi64(X, Y));
    store4(base + 4, _mm256_unpackhi_epi64(X, Y));
  }

  // Gap t == 2 (h = n/4): blocks [x0 x1 y0 y1], two per iteration.
  h = n / 4;
  for (std::size_t i = 0; i < h; i += 2) {
    u64* base = a + 4 * i;
    const __m256i v0 = load4(base);
    const __m256i v1 = load4(base + 4);
    __m256i X = _mm256_permute2x128_si256(v0, v1, 0x20);
    __m256i Y = _mm256_permute2x128_si256(v0, v1, 0x31);
    const __m256i vw = spread_pair(w + h + i);
    const __m256i vwq = spread_pair(w_shoup + h + i);
    inv_butterfly(X, Y, vw, vwq, vp, v2p);
    store4(base, _mm256_permute2x128_si256(X, Y, 0x20));
    store4(base + 4, _mm256_permute2x128_si256(X, Y, 0x31));
  }

  // Stages with gap t >= 4.
  std::size_t t = 4;
  for (h = n / 8; h >= 1; h >>= 1, t <<= 1) {
    for (std::size_t i = 0; i < h; ++i) {
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      const __m256i vw = bcast(w[h + i]);
      const __m256i vwq = bcast(w_shoup[h + i]);
      for (std::size_t j = 0; j < t; j += 4) {
        __m256i X = load4(x + j);
        __m256i Y = load4(y + j);
        inv_butterfly(X, Y, vw, vwq, vp, v2p);
        store4(x + j, X);
        store4(y + j, Y);
      }
    }
  }

  // Scale by n^-1 and fully reduce: [0, 2p) -> [0, p).
  const __m256i vninv = bcast(n_inv);
  const __m256i vninvq = bcast(n_inv_shoup);
  for (std::size_t j = 0; j < n; j += 4) {
    __m256i x = shoup_lazy(load4(a + j), vninv, vninvq, vp);
    store4(a + j, csub(x, vp));
  }
}

// Barrett product of 4 lanes, fully reduced.  q keeps only the three
// dominant words of (x*y) * ratio >> 128; see the bounds note at the top.
inline __m256i barrett_mul4(__m256i x, __m256i y, __m256i vp, __m256i v2p,
                            __m256i v4p, __m256i rhi, __m256i rlo) {
  const __m256i lo = mul64_lo(x, y);
  const __m256i hi = mul64_hi(x, y);
  const __m256i q = _mm256_add_epi64(
      mul64_lo(hi, rhi),
      _mm256_add_epi64(mul64_hi(hi, rlo), mul64_hi(lo, rhi)));
  __m256i r = _mm256_sub_epi64(lo, mul64_lo(q, vp));
  r = csub(r, v4p);
  r = csub(r, v2p);
  return csub(r, vp);
}

void add_avx2(u64* out, const u64* a, const u64* b, std::size_t n, u64 p) {
  const __m256i vp = bcast(p);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(out + i, csub(_mm256_add_epi64(load4(a + i), load4(b + i)), vp));
  }
  for (; i < n; ++i) out[i] = add_mod(a[i], b[i], p);
}

void sub_avx2(u64* out, const u64* a, const u64* b, std::size_t n, u64 p) {
  const __m256i vp = bcast(p);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d = _mm256_sub_epi64(
        _mm256_add_epi64(load4(a + i), vp), load4(b + i));
    store4(out + i, csub(d, vp));
  }
  for (; i < n; ++i) out[i] = sub_mod(a[i], b[i], p);
}

void neg_avx2(u64* out, const u64* a, std::size_t n, u64 p) {
  const __m256i vp = bcast(p);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = load4(a + i);
    const __m256i is_zero = _mm256_cmpeq_epi64(x, zero);
    store4(out + i,
           _mm256_andnot_si256(is_zero, _mm256_sub_epi64(vp, x)));
  }
  for (; i < n; ++i) out[i] = neg_mod(a[i], p);
}

void mul_avx2(u64* out, const u64* a, const u64* b, std::size_t n, u64 p,
              u64 ratio_hi, u64 ratio_lo) {
  const __m256i vp = bcast(p);
  const __m256i v2p = bcast(2 * p);
  const __m256i v4p = bcast(4 * p);
  const __m256i rhi = bcast(ratio_hi);
  const __m256i rlo = bcast(ratio_lo);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(out + i,
           barrett_mul4(load4(a + i), load4(b + i), vp, v2p, v4p, rhi, rlo));
  }
  for (; i < n; ++i) {
    out[i] = barrett_reduce128(static_cast<u128>(a[i]) * b[i], p, ratio_hi,
                               ratio_lo);
  }
}

void mul_acc_avx2(u64* out, const u64* a, const u64* b, std::size_t n, u64 p,
                  u64 ratio_hi, u64 ratio_lo) {
  const __m256i vp = bcast(p);
  const __m256i v2p = bcast(2 * p);
  const __m256i v4p = bcast(4 * p);
  const __m256i rhi = bcast(ratio_hi);
  const __m256i rlo = bcast(ratio_lo);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i prod =
        barrett_mul4(load4(a + i), load4(b + i), vp, v2p, v4p, rhi, rlo);
    store4(out + i, csub(_mm256_add_epi64(load4(out + i), prod), vp));
  }
  for (; i < n; ++i) {
    const u64 prod = barrett_reduce128(static_cast<u128>(a[i]) * b[i], p,
                                       ratio_hi, ratio_lo);
    out[i] = add_mod(out[i], prod, p);
  }
}

void scalar_mul_avx2(u64* out, const u64* a, std::size_t n, u64 w,
                     u64 w_shoup, u64 p) {
  const __m256i vp = bcast(p);
  const __m256i vw = bcast(w);
  const __m256i vwq = bcast(w_shoup);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(out + i, csub(shoup_lazy(load4(a + i), vw, vwq, vp), vp));
  }
  for (; i < n; ++i) {
    const u64 q = static_cast<u64>((static_cast<u128>(a[i]) * w_shoup) >> 64);
    u64 x = w * a[i] - q * p;
    if (x >= p) x -= p;
    out[i] = x;
  }
}

void add_reduce2p_avx2(u64* out, const u64* a, const u64* b, std::size_t n,
                       u64 p) {
  const __m256i vp = bcast(p);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = csub(load4(b + i), vp);
    store4(out + i, csub(_mm256_add_epi64(load4(a + i), x), vp));
  }
  for (; i < n; ++i) {
    u64 x = b[i];
    if (x >= p) x -= p;
    out[i] = add_mod(a[i], x, p);
  }
}

}  // namespace

const NttKernel* avx2_kernel() {
  // A function-local static, so the copy of scalar_kernel() never depends
  // on cross-TU static-init order.
  static const NttKernel kernel = [] {
    NttKernel k = scalar_kernel();
    k.name = "avx2";
    k.fwd_ntt = fwd_ntt_avx2;
    k.fwd_ntt_lazy = fwd_ntt_lazy_avx2;
    k.inv_ntt = inv_ntt_avx2;
    k.add = add_avx2;
    k.sub = sub_avx2;
    k.neg = neg_avx2;
    k.mul = mul_avx2;
    k.mul_acc = mul_acc_avx2;
    k.scalar_mul = scalar_mul_avx2;
    k.add_reduce2p = add_reduce2p_avx2;
    return k;
  }();
  return &kernel;
}

}  // namespace primer

#else  // !__AVX2__

namespace primer {
const NttKernel* avx2_kernel() { return nullptr; }
}  // namespace primer

#endif
