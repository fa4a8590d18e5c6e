// Portable scalar kernel set.  Same lazy-reduction structure as the AVX2
// path: forward butterflies keep values in [0, 4p) with one conditional
// subtraction per butterfly, inverse butterflies stay in [0, 2p), and a
// single sweep at the end restores the canonical [0, p) range.  Compared to
// the classic fully-reduced Shoup butterfly this removes two of the three
// per-butterfly corrections, and it makes the scalar path the exact
// reference semantics for the vector kernels.
#include "ntt/kernels.h"

namespace primer {

namespace {

// Shoup multiply without the final correction: returns w*x - hi(x*wq)*p,
// which lies in [0, 2p) for any 64-bit x as long as w < p.
inline u64 shoup_lazy(u64 x, u64 w, u64 w_shoup, u64 p) {
  const u64 q = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
  return w * x - q * p;
}

// The butterfly walk shared by fwd_ntt (which fully reduces afterwards) and
// fwd_ntt_lazy (which leaves values in [0, 4p)).
void fwd_ntt_lazy_scalar(u64* a, std::size_t n, const u64* w,
                         const u64* w_shoup, u64 p) {
  const u64 two_p = 2 * p;
  std::size_t t = n;
  for (std::size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j1 = 2 * i * t;
      const u64 wi = w[m + i];
      const u64 wqi = w_shoup[m + i];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        u64 x = a[j];
        if (x >= two_p) x -= two_p;               // [0, 2p)
        const u64 ty = shoup_lazy(a[j + t], wi, wqi, p);  // [0, 2p)
        a[j] = x + ty;                            // [0, 4p)
        a[j + t] = x - ty + two_p;                // (0, 4p)
      }
    }
  }
}

void fwd_ntt_scalar(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                    u64 p) {
  fwd_ntt_lazy_scalar(a, n, w, w_shoup, p);
  const u64 two_p = 2 * p;
  for (std::size_t j = 0; j < n; ++j) {
    u64 x = a[j];
    if (x >= two_p) x -= two_p;
    if (x >= p) x -= p;
    a[j] = x;
  }
}

void inv_ntt_scalar(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                    u64 n_inv, u64 n_inv_shoup, u64 p) {
  const u64 two_p = 2 * p;
  std::size_t t = 1;
  for (std::size_t m = n; m > 1; m >>= 1) {
    std::size_t j1 = 0;
    const std::size_t h = m >> 1;
    for (std::size_t i = 0; i < h; ++i) {
      const u64 wi = w[h + i];
      const u64 wqi = w_shoup[h + i];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 u = a[j];      // [0, 2p)
        const u64 v = a[j + t];  // [0, 2p)
        u64 s = u + v;           // [0, 4p)
        if (s >= two_p) s -= two_p;
        a[j] = s;                                      // [0, 2p)
        a[j + t] = shoup_lazy(u - v + two_p, wi, wqi, p);  // [0, 2p)
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  for (std::size_t j = 0; j < n; ++j) {
    u64 x = shoup_lazy(a[j], n_inv, n_inv_shoup, p);  // [0, 2p)
    if (x >= p) x -= p;
    a[j] = x;
  }
}

void add_scalar(u64* out, const u64* a, const u64* b, std::size_t n, u64 p) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add_mod(a[i], b[i], p);
}

void sub_scalar(u64* out, const u64* a, const u64* b, std::size_t n, u64 p) {
  for (std::size_t i = 0; i < n; ++i) out[i] = sub_mod(a[i], b[i], p);
}

void neg_scalar(u64* out, const u64* a, std::size_t n, u64 p) {
  for (std::size_t i = 0; i < n; ++i) out[i] = neg_mod(a[i], p);
}

void mul_scalar(u64* out, const u64* a, const u64* b, std::size_t n, u64 p,
                u64 ratio_hi, u64 ratio_lo) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = barrett_reduce128(static_cast<u128>(a[i]) * b[i], p, ratio_hi,
                               ratio_lo);
  }
}

void mul_acc_scalar(u64* out, const u64* a, const u64* b, std::size_t n,
                    u64 p, u64 ratio_hi, u64 ratio_lo) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 prod = barrett_reduce128(static_cast<u128>(a[i]) * b[i], p,
                                       ratio_hi, ratio_lo);
    out[i] = add_mod(out[i], prod, p);
  }
}

void scalar_mul_scalar(u64* out, const u64* a, std::size_t n, u64 w,
                       u64 w_shoup, u64 p) {
  for (std::size_t i = 0; i < n; ++i) {
    u64 x = shoup_lazy(a[i], w, w_shoup, p);
    if (x >= p) x -= p;
    out[i] = x;
  }
}

void reduce_span_scalar(u64* out, const u64* a, std::size_t n, u64 p,
                        u64 ratio_hi) {
  for (std::size_t i = 0; i < n; ++i) {
    // Single-word Barrett quotient (Barrett::reduce): undershoots the true
    // quotient by at most 2, corrected by the subtraction loop.
    const u64 x = a[i];
    const u64 q = static_cast<u64>((static_cast<u128>(x) * ratio_hi) >> 64);
    u64 r = x - q * p;
    while (r >= p) r -= p;
    out[i] = r;
  }
}

void shoup_mul_acc_lazy2_scalar(u64* acc0, u64* acc1, const u64* a,
                                const u64* w0, const u64* w0_shoup,
                                const u64* w1, const u64* w1_shoup,
                                std::size_t n, u64 p) {
  const u64 two_p = 2 * p;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 x = a[i];
    u64 s0 = acc0[i] + shoup_lazy(x, w0[i], w0_shoup[i], p);  // [0, 4p)
    if (s0 >= two_p) s0 -= two_p;
    acc0[i] = s0;
    u64 s1 = acc1[i] + shoup_lazy(x, w1[i], w1_shoup[i], p);
    if (s1 >= two_p) s1 -= two_p;
    acc1[i] = s1;
  }
}

void add_reduce2p_scalar(u64* out, const u64* a, const u64* b, std::size_t n,
                         u64 p) {
  for (std::size_t i = 0; i < n; ++i) {
    u64 x = b[i];
    if (x >= p) x -= p;
    out[i] = add_mod(a[i], x, p);
  }
}

const NttKernel kScalarKernel = {
    .name = "scalar",
    .shoup_shift = 64,
    .fwd_ntt = fwd_ntt_scalar,
    .fwd_ntt_lazy = fwd_ntt_lazy_scalar,
    .inv_ntt = inv_ntt_scalar,
    .add = add_scalar,
    .sub = sub_scalar,
    .neg = neg_scalar,
    .mul = mul_scalar,
    .mul_acc = mul_acc_scalar,
    .scalar_mul = scalar_mul_scalar,
    .reduce_span = reduce_span_scalar,
    .shoup_mul_acc_lazy2 = shoup_mul_acc_lazy2_scalar,
    .add_reduce2p = add_reduce2p_scalar,
};

}  // namespace

const NttKernel& scalar_kernel() { return kScalarKernel; }

}  // namespace primer
