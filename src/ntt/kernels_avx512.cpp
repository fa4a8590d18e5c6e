// AVX-512 kernel tiers: 8-lane u64 butterflies and limb ops.
//
// Two kernel sets live in this TU:
//
//   avx512 (AVX512F + AVX512DQ) — the structural port of the AVX2 set to
//   8-lane vectors.  vpmullq (_mm512_mullo_epi64) replaces the 5-op 32x32
//   partial-product emulation for every low-64 product; the high-64 halves
//   (Shoup/Barrett quotients) still use the vpmuludq dance, which is exact.
//   Conditional subtractions use mask registers (cmpge + masked sub)
//   instead of the AVX2 sign-flip compare trick.  Same lazy-reduction
//   ranges as scalar/AVX2 ([0, 4p) forward, [0, 2p) inverse, one final
//   correction sweep), same Shoup convention (shoup_shift = 64), so every
//   table the scalar tier consumes drives this tier unchanged and outputs
//   are bit-identical.  Bound: p < 2^61 (dispatch-enforced).
//
//   avx512ifma (+ AVX512IFMA) — the sub-52-bit-modulus fast path.  The NTT
//   butterflies, scalar Shoup mul, and the Shoup-lazy key-switch
//   accumulation are rebuilt on vpmadd52lo/hi 52-bit multiply-adds with
//   quotients in the 52-bit Shoup convention (shoup_shift = 52,
//   wq = floor(w * 2^52 / p)): the quotient estimate is ONE vpmadd52hi and
//   the product residue two vpmadd52lo + sub + mask, replacing the
//   ~10-instruction 64-bit high-half emulation.  Correctness needs every
//   multiplicand below 2^52; with lazy butterfly values in [0, 4p) that
//   means 4p < 2^52, i.e. p < 2^50 (the HEXL IFMA bound) — enforced by
//   dispatch_kernel.  Sub-52-bit moduli in [2^50, 2^52) stay on the DQ
//   tier.  Ops that involve no Shoup quotient (add/sub/neg, Barrett
//   mul/mul_acc, reduce_span, add_reduce2p) are shared with the DQ tier
//   unchanged.
//
// The final two forward stages and first two inverse stages (butterfly
// gaps 4, 2, 1) interleave operands within a vector; they are handled with
// permutex2var gather/scatter index plans over 16-coefficient blocks, so
// the whole transform stays vectorized down to gap 1.
//
// This file is compiled with -mavx512f -mavx512dq (and -mavx512ifma when
// the toolchain has it); see CMakeLists.txt.  Without compiler support the
// corresponding kernel accessors return nullptr and dispatch never routes
// here.
#include "ntt/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace primer {

namespace {

inline __m512i load8(const u64* p) { return _mm512_loadu_si512(p); }
inline void store8(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }
inline __m512i bcast8(u64 x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

// Low 64 bits of the unsigned 64x64 lane product — a single vpmullq.
inline __m512i mul64_lo(__m512i x, __m512i y) {
  return _mm512_mullo_epi64(x, y);
}

// High 64 bits of the unsigned 64x64 lane product (exact), assembled from
// 32x32 partial products — AVX-512 has no 64x64 high-half instruction.
inline __m512i mul64_hi(__m512i x, __m512i y) {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i xh = _mm512_srli_epi64(x, 32);
  const __m512i yh = _mm512_srli_epi64(y, 32);
  const __m512i ll = _mm512_mul_epu32(x, y);
  const __m512i lh = _mm512_mul_epu32(x, yh);
  const __m512i hl = _mm512_mul_epu32(xh, y);
  const __m512i hh = _mm512_mul_epu32(xh, yh);
  const __m512i carry = _mm512_srli_epi64(
      _mm512_add_epi64(_mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                                        _mm512_and_epi64(lh, lo32)),
                       _mm512_and_epi64(hl, lo32)),
      32);
  return _mm512_add_epi64(
      _mm512_add_epi64(hh, carry),
      _mm512_add_epi64(_mm512_srli_epi64(lh, 32), _mm512_srli_epi64(hl, 32)));
}

// a >= t ? a - t : a, unsigned, via mask registers.
inline __m512i csub(__m512i a, __m512i t) {
  const __mmask8 ge = _mm512_cmpge_epu64_mask(a, t);
  return _mm512_mask_sub_epi64(a, ge, a, t);
}

// Shoup multiply without correction (64-bit convention): w*x - hi(x*wq)*p,
// in [0, 2p) for w < p and any 64-bit x.
inline __m512i shoup_lazy(__m512i x, __m512i w, __m512i wq, __m512i p) {
  const __m512i q = mul64_hi(x, wq);
  return _mm512_sub_epi64(mul64_lo(w, x), mul64_lo(q, p));
}

// Forward butterfly on 8 independent (X, Y) pairs: X in [0, 4p) -> cond
// subtract 2p; T = w*Y lazily; out (X+T, X-T+2p), both in [0, 4p).
inline void fwd_butterfly(__m512i& X, __m512i& Y, __m512i w, __m512i wq,
                          __m512i p, __m512i two_p) {
  const __m512i x = csub(X, two_p);
  const __m512i t = shoup_lazy(Y, w, wq, p);
  X = _mm512_add_epi64(x, t);
  Y = _mm512_add_epi64(_mm512_sub_epi64(x, t), two_p);
}

// Inverse butterfly: inputs in [0, 2p), outputs in [0, 2p).
inline void inv_butterfly(__m512i& X, __m512i& Y, __m512i w, __m512i wq,
                          __m512i p, __m512i two_p) {
  const __m512i s = csub(_mm512_add_epi64(X, Y), two_p);
  const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(X, Y), two_p);
  X = s;
  Y = shoup_lazy(d, w, wq, p);
}

// Lane plan for a butterfly stage with gap t in {4, 2, 1}: a 16-coefficient
// block holds 8/t butterfly groups.  gx/gy gather the X/Y operands from the
// two loaded vectors (indices 0-7 pick vector 0, 8-15 vector 1), s0/s1
// scatter the results back to memory order, and tw spreads the 8/t group
// twiddles across the 8 lanes.
struct StagePlan {
  __m512i gx, gy, s0, s1, tw;
};

inline StagePlan stage_plan(std::size_t t) {
  StagePlan pl;
  switch (t) {
    case 4:
      pl.gx = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
      pl.gy = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
      pl.s0 = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
      pl.s1 = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
      pl.tw = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
      break;
    case 2:
      pl.gx = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
      pl.gy = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
      pl.s0 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
      pl.s1 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
      pl.tw = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
      break;
    default:  // t == 1
      pl.gx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
      pl.gy = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
      pl.s0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
      pl.s1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
      pl.tw = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
      break;
  }
  return pl;
}

// One interleaved stage (gap t in {4, 2, 1}) over the whole array.
// Butterfly is a callable (X, Y, w, wq) mutating X/Y in place.
template <class BF>
inline void interleaved_stage(u64* a, std::size_t n, std::size_t t,
                              const u64* w, const u64* w_shoup, BF&& bf) {
  const StagePlan pl = stage_plan(t);
  const std::size_t m = n / (2 * t);        // butterfly groups this stage
  const std::size_t step = 8 / t;           // groups per 16-coeff block
  for (std::size_t i = 0; i < m; i += step) {
    u64* base = a + 2 * t * i;
    const __m512i v0 = load8(base);
    const __m512i v1 = load8(base + 8);
    __m512i X = _mm512_permutex2var_epi64(v0, pl.gx, v1);
    __m512i Y = _mm512_permutex2var_epi64(v0, pl.gy, v1);
    const __m512i vw = _mm512_permutexvar_epi64(pl.tw, load8(w + m + i));
    const __m512i vwq =
        _mm512_permutexvar_epi64(pl.tw, load8(w_shoup + m + i));
    bf(X, Y, vw, vwq);
    store8(base, _mm512_permutex2var_epi64(X, pl.s0, Y));
    store8(base + 8, _mm512_permutex2var_epi64(X, pl.s1, Y));
  }
}

// Forward butterfly walk (no final sweep), parameterized over the butterfly
// so the DQ and IFMA tiers share the stage plumbing.
template <class BF>
inline void fwd_walk(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                     BF&& bf) {
  // Stages with butterfly gap t >= 8: straight 8-wide loads.
  std::size_t t = n;
  for (std::size_t m = 1; t > 8; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      const __m512i vw = bcast8(w[m + i]);
      const __m512i vwq = bcast8(w_shoup[m + i]);
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i X = load8(x + j);
        __m512i Y = load8(y + j);
        bf(X, Y, vw, vwq);
        store8(x + j, X);
        store8(y + j, Y);
      }
    }
  }
  // Gaps 4, 2, 1: permutex2var lane plans.
  interleaved_stage(a, n, 4, w, w_shoup, bf);
  interleaved_stage(a, n, 2, w, w_shoup, bf);
  interleaved_stage(a, n, 1, w, w_shoup, bf);
}

// Inverse butterfly walk (no 1/n scaling), mirror order.
template <class BF>
inline void inv_walk(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                     BF&& bf) {
  interleaved_stage(a, n, 1, w, w_shoup, bf);
  interleaved_stage(a, n, 2, w, w_shoup, bf);
  interleaved_stage(a, n, 4, w, w_shoup, bf);
  std::size_t t = 8;
  for (std::size_t h = n / 16; h >= 1; h >>= 1, t <<= 1) {
    for (std::size_t i = 0; i < h; ++i) {
      u64* x = a + 2 * i * t;
      u64* y = x + t;
      const __m512i vw = bcast8(w[h + i]);
      const __m512i vwq = bcast8(w_shoup[h + i]);
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i X = load8(x + j);
        __m512i Y = load8(y + j);
        bf(X, Y, vw, vwq);
        store8(x + j, X);
        store8(y + j, Y);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// avx512 (DQ) tier
// ---------------------------------------------------------------------------

void fwd_ntt_lazy_avx512(u64* a, std::size_t n, const u64* w,
                         const u64* w_shoup, u64 p) {
  if (n < 16) {
    scalar_kernel().fwd_ntt_lazy(a, n, w, w_shoup, p);
    return;
  }
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  fwd_walk(a, n, w, w_shoup, [&](__m512i& X, __m512i& Y, __m512i vw,
                                 __m512i vwq) {
    fwd_butterfly(X, Y, vw, vwq, vp, v2p);
  });
}

void fwd_ntt_avx512(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                    u64 p) {
  if (n < 16) {
    scalar_kernel().fwd_ntt(a, n, w, w_shoup, p);
    return;
  }
  fwd_ntt_lazy_avx512(a, n, w, w_shoup, p);
  // Single correction sweep: [0, 4p) -> [0, p).
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  for (std::size_t j = 0; j < n; j += 8) {
    __m512i x = load8(a + j);
    x = csub(x, v2p);
    x = csub(x, vp);
    store8(a + j, x);
  }
}

void inv_ntt_avx512(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                    u64 n_inv, u64 n_inv_shoup, u64 p) {
  if (n < 16) {
    scalar_kernel().inv_ntt(a, n, w, w_shoup, n_inv, n_inv_shoup, p);
    return;
  }
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  inv_walk(a, n, w, w_shoup, [&](__m512i& X, __m512i& Y, __m512i vw,
                                 __m512i vwq) {
    inv_butterfly(X, Y, vw, vwq, vp, v2p);
  });
  // Scale by n^-1 and fully reduce: [0, 2p) -> [0, p).
  const __m512i vninv = bcast8(n_inv);
  const __m512i vninvq = bcast8(n_inv_shoup);
  for (std::size_t j = 0; j < n; j += 8) {
    const __m512i x = shoup_lazy(load8(a + j), vninv, vninvq, vp);
    store8(a + j, csub(x, vp));
  }
}

// Barrett product of 8 lanes, fully reduced.  Same dropped-carry bounds as
// the AVX2 tier (r < 5p before the 4p/2p/p conditional-subtract chain;
// needs p < 2^61, dispatch-enforced).
inline __m512i barrett_mul8(__m512i x, __m512i y, __m512i vp, __m512i v2p,
                            __m512i v4p, __m512i rhi, __m512i rlo) {
  const __m512i lo = mul64_lo(x, y);
  const __m512i hi = mul64_hi(x, y);
  const __m512i q = _mm512_add_epi64(
      mul64_lo(hi, rhi),
      _mm512_add_epi64(mul64_hi(hi, rlo), mul64_hi(lo, rhi)));
  __m512i r = _mm512_sub_epi64(lo, mul64_lo(q, vp));
  r = csub(r, v4p);
  r = csub(r, v2p);
  return csub(r, vp);
}

void add_avx512(u64* out, const u64* a, const u64* b, std::size_t n, u64 p) {
  const __m512i vp = bcast8(p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(out + i, csub(_mm512_add_epi64(load8(a + i), load8(b + i)), vp));
  }
  for (; i < n; ++i) out[i] = add_mod(a[i], b[i], p);
}

void sub_avx512(u64* out, const u64* a, const u64* b, std::size_t n, u64 p) {
  const __m512i vp = bcast8(p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i d = _mm512_sub_epi64(
        _mm512_add_epi64(load8(a + i), vp), load8(b + i));
    store8(out + i, csub(d, vp));
  }
  for (; i < n; ++i) out[i] = sub_mod(a[i], b[i], p);
}

void neg_avx512(u64* out, const u64* a, std::size_t n, u64 p) {
  const __m512i vp = bcast8(p);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = load8(a + i);
    const __mmask8 nonzero = _mm512_cmpneq_epi64_mask(x, zero);
    store8(out + i, _mm512_maskz_sub_epi64(nonzero, vp, x));
  }
  for (; i < n; ++i) out[i] = neg_mod(a[i], p);
}

void mul_avx512(u64* out, const u64* a, const u64* b, std::size_t n, u64 p,
                u64 ratio_hi, u64 ratio_lo) {
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  const __m512i v4p = bcast8(4 * p);
  const __m512i rhi = bcast8(ratio_hi);
  const __m512i rlo = bcast8(ratio_lo);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(out + i,
           barrett_mul8(load8(a + i), load8(b + i), vp, v2p, v4p, rhi, rlo));
  }
  for (; i < n; ++i) {
    out[i] = barrett_reduce128(static_cast<u128>(a[i]) * b[i], p, ratio_hi,
                               ratio_lo);
  }
}

void mul_acc_avx512(u64* out, const u64* a, const u64* b, std::size_t n,
                    u64 p, u64 ratio_hi, u64 ratio_lo) {
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  const __m512i v4p = bcast8(4 * p);
  const __m512i rhi = bcast8(ratio_hi);
  const __m512i rlo = bcast8(ratio_lo);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i prod =
        barrett_mul8(load8(a + i), load8(b + i), vp, v2p, v4p, rhi, rlo);
    store8(out + i, csub(_mm512_add_epi64(load8(out + i), prod), vp));
  }
  for (; i < n; ++i) {
    const u64 prod = barrett_reduce128(static_cast<u128>(a[i]) * b[i], p,
                                       ratio_hi, ratio_lo);
    out[i] = add_mod(out[i], prod, p);
  }
}

void scalar_mul_avx512(u64* out, const u64* a, std::size_t n, u64 w,
                       u64 w_shoup, u64 p) {
  const __m512i vp = bcast8(p);
  const __m512i vw = bcast8(w);
  const __m512i vwq = bcast8(w_shoup);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(out + i, csub(shoup_lazy(load8(a + i), vw, vwq, vp), vp));
  }
  for (; i < n; ++i) {
    const u64 q = static_cast<u64>((static_cast<u128>(a[i]) * w_shoup) >> 64);
    u64 x = w * a[i] - q * p;
    if (x >= p) x -= p;
    out[i] = x;
  }
}

void reduce_span_avx512(u64* out, const u64* a, std::size_t n, u64 p,
                        u64 ratio_hi) {
  // Single-word Barrett quotient: q = hi64(x * ratio_hi) undershoots the
  // true quotient by at most 2, so r < 3p and the 2p / p chain reduces.
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  const __m512i rhi = bcast8(ratio_hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = load8(a + i);
    const __m512i q = mul64_hi(x, rhi);
    __m512i r = _mm512_sub_epi64(x, mul64_lo(q, vp));
    r = csub(r, v2p);
    store8(out + i, csub(r, vp));
  }
  for (; i < n; ++i) {
    const u64 x = a[i];
    const u64 q = static_cast<u64>((static_cast<u128>(x) * ratio_hi) >> 64);
    u64 r = x - q * p;
    while (r >= p) r -= p;
    out[i] = r;
  }
}

void shoup_mul_acc_lazy2_avx512(u64* acc0, u64* acc1, const u64* a,
                                const u64* w0, const u64* w0_shoup,
                                const u64* w1, const u64* w1_shoup,
                                std::size_t n, u64 p) {
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = load8(a + i);
    const __m512i t0 =
        shoup_lazy(x, load8(w0 + i), load8(w0_shoup + i), vp);  // [0, 2p)
    store8(acc0 + i, csub(_mm512_add_epi64(load8(acc0 + i), t0), v2p));
    const __m512i t1 = shoup_lazy(x, load8(w1 + i), load8(w1_shoup + i), vp);
    store8(acc1 + i, csub(_mm512_add_epi64(load8(acc1 + i), t1), v2p));
  }
  const u64 two_p = 2 * p;
  for (; i < n; ++i) {
    const u64 x = a[i];
    const u64 q0 =
        static_cast<u64>((static_cast<u128>(x) * w0_shoup[i]) >> 64);
    u64 s0 = acc0[i] + (w0[i] * x - q0 * p);
    if (s0 >= two_p) s0 -= two_p;
    acc0[i] = s0;
    const u64 q1 =
        static_cast<u64>((static_cast<u128>(x) * w1_shoup[i]) >> 64);
    u64 s1 = acc1[i] + (w1[i] * x - q1 * p);
    if (s1 >= two_p) s1 -= two_p;
    acc1[i] = s1;
  }
}

void add_reduce2p_avx512(u64* out, const u64* a, const u64* b, std::size_t n,
                         u64 p) {
  const __m512i vp = bcast8(p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = csub(load8(b + i), vp);
    store8(out + i, csub(_mm512_add_epi64(load8(a + i), x), vp));
  }
  for (; i < n; ++i) {
    u64 x = b[i];
    if (x >= p) x -= p;
    out[i] = add_mod(a[i], x, p);
  }
}

const NttKernel kAvx512Kernel = {
    .name = "avx512",
    .shoup_shift = 64,
    .fwd_ntt = fwd_ntt_avx512,
    .fwd_ntt_lazy = fwd_ntt_lazy_avx512,
    .inv_ntt = inv_ntt_avx512,
    .add = add_avx512,
    .sub = sub_avx512,
    .neg = neg_avx512,
    .mul = mul_avx512,
    .mul_acc = mul_acc_avx512,
    .scalar_mul = scalar_mul_avx512,
    .reduce_span = reduce_span_avx512,
    .shoup_mul_acc_lazy2 = shoup_mul_acc_lazy2_avx512,
    .add_reduce2p = add_reduce2p_avx512,
};

}  // namespace

const NttKernel* avx512_kernel() { return &kAvx512Kernel; }

// ---------------------------------------------------------------------------
// avx512ifma tier (52-bit Shoup convention; p < 2^50)
// ---------------------------------------------------------------------------

#if defined(__AVX512IFMA__)

namespace {

constexpr u64 kMask52 = (u64{1} << 52) - 1;

// Scalar reference for the 52-bit Shoup convention (tails, n < 16):
// wq = floor(w * 2^52 / p); result w*x mod+ p in [0, 2p) for x <= 2^52.
inline u64 shoup52_lazy_scalar(u64 x, u64 w, u64 wq, u64 p) {
  const u64 q = static_cast<u64>((static_cast<u128>(x) * wq) >> 52);
  return w * x - q * p;  // < 2p < 2^64: exact in u64 arithmetic
}

// Vector Shoup-lazy product in the 52-bit convention.  One vpmadd52hi for
// the quotient, two vpmadd52lo for the residue; all operands must be below
// 2^52 (x in [0, 4p) with p < 2^50 qualifies).  The true residue lies in
// [0, 2p) < 2^52, so the mod-2^52 subtraction is exact after masking.
inline __m512i shoup52_lazy(__m512i x, __m512i w, __m512i wq, __m512i p,
                            __m512i mask52, __m512i zero) {
  const __m512i q = _mm512_madd52hi_epu64(zero, x, wq);
  const __m512i wx = _mm512_madd52lo_epu64(zero, x, w);
  const __m512i qp = _mm512_madd52lo_epu64(zero, q, p);
  return _mm512_and_epi64(_mm512_sub_epi64(wx, qp), mask52);
}

inline void fwd_butterfly_ifma(__m512i& X, __m512i& Y, __m512i w, __m512i wq,
                               __m512i p, __m512i two_p, __m512i mask52,
                               __m512i zero) {
  const __m512i x = csub(X, two_p);
  const __m512i t = shoup52_lazy(Y, w, wq, p, mask52, zero);
  X = _mm512_add_epi64(x, t);
  Y = _mm512_add_epi64(_mm512_sub_epi64(x, t), two_p);
}

inline void inv_butterfly_ifma(__m512i& X, __m512i& Y, __m512i w, __m512i wq,
                               __m512i p, __m512i two_p, __m512i mask52,
                               __m512i zero) {
  const __m512i s = csub(_mm512_add_epi64(X, Y), two_p);
  const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(X, Y), two_p);
  X = s;
  Y = shoup52_lazy(d, w, wq, p, mask52, zero);
}

// Scalar butterfly walks in the 52-bit convention for n < 16 (the scalar
// kernel set cannot be used: its tables are in the 64-bit convention).
void fwd_ntt_lazy_ifma_small(u64* a, std::size_t n, const u64* w,
                             const u64* w_shoup, u64 p) {
  const u64 two_p = 2 * p;
  std::size_t t = n;
  for (std::size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j1 = 2 * i * t;
      for (std::size_t j = j1; j < j1 + t; ++j) {
        u64 x = a[j];
        if (x >= two_p) x -= two_p;
        const u64 ty = shoup52_lazy_scalar(a[j + t], w[m + i],
                                           w_shoup[m + i], p);
        a[j] = x + ty;
        a[j + t] = x - ty + two_p;
      }
    }
  }
}

void fwd_ntt_lazy_ifma(u64* a, std::size_t n, const u64* w,
                       const u64* w_shoup, u64 p) {
  if (n < 16) {
    fwd_ntt_lazy_ifma_small(a, n, w, w_shoup, p);
    return;
  }
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  const __m512i mask52 = bcast8(kMask52);
  const __m512i zero = _mm512_setzero_si512();
  fwd_walk(a, n, w, w_shoup, [&](__m512i& X, __m512i& Y, __m512i vw,
                                 __m512i vwq) {
    fwd_butterfly_ifma(X, Y, vw, vwq, vp, v2p, mask52, zero);
  });
}

void fwd_ntt_ifma(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                  u64 p) {
  fwd_ntt_lazy_ifma(a, n, w, w_shoup, p);
  const u64 two_p = 2 * p;
  if (n < 16) {
    for (std::size_t j = 0; j < n; ++j) {
      u64 x = a[j];
      if (x >= two_p) x -= two_p;
      if (x >= p) x -= p;
      a[j] = x;
    }
    return;
  }
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(two_p);
  for (std::size_t j = 0; j < n; j += 8) {
    __m512i x = load8(a + j);
    x = csub(x, v2p);
    x = csub(x, vp);
    store8(a + j, x);
  }
}

void inv_ntt_ifma(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                  u64 n_inv, u64 n_inv_shoup, u64 p) {
  const u64 two_p = 2 * p;
  if (n < 16) {
    std::size_t t = 1;
    for (std::size_t m = n; m > 1; m >>= 1) {
      std::size_t j1 = 0;
      const std::size_t h = m >> 1;
      for (std::size_t i = 0; i < h; ++i) {
        for (std::size_t j = j1; j < j1 + t; ++j) {
          const u64 u = a[j];
          const u64 v = a[j + t];
          u64 s = u + v;
          if (s >= two_p) s -= two_p;
          a[j] = s;
          a[j + t] =
              shoup52_lazy_scalar(u - v + two_p, w[h + i], w_shoup[h + i], p);
        }
        j1 += 2 * t;
      }
      t <<= 1;
    }
    for (std::size_t j = 0; j < n; ++j) {
      u64 x = shoup52_lazy_scalar(a[j], n_inv, n_inv_shoup, p);
      if (x >= p) x -= p;
      a[j] = x;
    }
    return;
  }
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(two_p);
  const __m512i mask52 = bcast8(kMask52);
  const __m512i zero = _mm512_setzero_si512();
  inv_walk(a, n, w, w_shoup, [&](__m512i& X, __m512i& Y, __m512i vw,
                                 __m512i vwq) {
    inv_butterfly_ifma(X, Y, vw, vwq, vp, v2p, mask52, zero);
  });
  const __m512i vninv = bcast8(n_inv);
  const __m512i vninvq = bcast8(n_inv_shoup);
  for (std::size_t j = 0; j < n; j += 8) {
    const __m512i x = shoup52_lazy(load8(a + j), vninv, vninvq, vp, mask52,
                                   zero);
    store8(a + j, csub(x, vp));
  }
}

void scalar_mul_ifma(u64* out, const u64* a, std::size_t n, u64 w,
                     u64 w_shoup, u64 p) {
  const __m512i vp = bcast8(p);
  const __m512i vw = bcast8(w);
  const __m512i vwq = bcast8(w_shoup);
  const __m512i mask52 = bcast8(kMask52);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store8(out + i,
           csub(shoup52_lazy(load8(a + i), vw, vwq, vp, mask52, zero), vp));
  }
  for (; i < n; ++i) {
    u64 x = shoup52_lazy_scalar(a[i], w, w_shoup, p);
    if (x >= p) x -= p;
    out[i] = x;
  }
}

// Key-switch Shoup-lazy accumulation with 52-bit quotients.  Digit values
// `a` must be below 2^52 — satisfied by both canonical ([0, p)) and
// lazy-forward-NTT ([0, 4p), p < 2^50) digit limbs.
void shoup_mul_acc_lazy2_ifma(u64* acc0, u64* acc1, const u64* a,
                              const u64* w0, const u64* w0_shoup,
                              const u64* w1, const u64* w1_shoup,
                              std::size_t n, u64 p) {
  const __m512i vp = bcast8(p);
  const __m512i v2p = bcast8(2 * p);
  const __m512i mask52 = bcast8(kMask52);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = load8(a + i);
    const __m512i t0 = shoup52_lazy(x, load8(w0 + i), load8(w0_shoup + i),
                                    vp, mask52, zero);  // [0, 2p)
    store8(acc0 + i, csub(_mm512_add_epi64(load8(acc0 + i), t0), v2p));
    const __m512i t1 = shoup52_lazy(x, load8(w1 + i), load8(w1_shoup + i),
                                    vp, mask52, zero);
    store8(acc1 + i, csub(_mm512_add_epi64(load8(acc1 + i), t1), v2p));
  }
  const u64 two_p = 2 * p;
  for (; i < n; ++i) {
    const u64 x = a[i];
    u64 s0 = acc0[i] + shoup52_lazy_scalar(x, w0[i], w0_shoup[i], p);
    if (s0 >= two_p) s0 -= two_p;
    acc0[i] = s0;
    u64 s1 = acc1[i] + shoup52_lazy_scalar(x, w1[i], w1_shoup[i], p);
    if (s1 >= two_p) s1 -= two_p;
    acc1[i] = s1;
  }
}

const NttKernel kAvx512IfmaKernel = {
    .name = "avx512ifma",
    .shoup_shift = 52,
    .fwd_ntt = fwd_ntt_ifma,
    .fwd_ntt_lazy = fwd_ntt_lazy_ifma,
    .inv_ntt = inv_ntt_ifma,
    .add = add_avx512,
    .sub = sub_avx512,
    .neg = neg_avx512,
    .mul = mul_avx512,
    .mul_acc = mul_acc_avx512,
    .scalar_mul = scalar_mul_ifma,
    .reduce_span = reduce_span_avx512,
    .shoup_mul_acc_lazy2 = shoup_mul_acc_lazy2_ifma,
    .add_reduce2p = add_reduce2p_avx512,
};

}  // namespace

const NttKernel* avx512ifma_kernel() { return &kAvx512IfmaKernel; }

#else  // !__AVX512IFMA__

const NttKernel* avx512ifma_kernel() { return nullptr; }

#endif

}  // namespace primer

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace primer {
const NttKernel* avx512_kernel() { return nullptr; }
const NttKernel* avx512ifma_kernel() { return nullptr; }
}  // namespace primer

#endif
