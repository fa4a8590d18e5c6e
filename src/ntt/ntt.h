// Negacyclic number-theoretic transform over Z_p[x]/(x^n + 1).
//
// The transform folds multiplication by powers of psi (a primitive 2n-th
// root of unity) into the butterfly twiddles, so forward() maps coefficient
// vectors to evaluations at odd powers of psi and pointwise products in the
// transformed domain correspond to negacyclic convolution — exactly the
// polynomial product the BFV ring needs.  Implementation follows the
// standard Cooley–Tukey (decimation in time, bit-reversed twiddles) /
// Gentleman–Sande (inverse) pair with Shoup lazy multiplication.
//
// The butterfly loops themselves live in the kernel layer (ntt/kernels.h):
// each Ntt binds to a kernel set at construction (scalar, AVX2, AVX-512 DQ,
// or AVX-512 IFMA, chosen by runtime dispatch / PRIMER_NTT_KERNEL) and
// stores its twiddles as separate operand/quotient arrays in 64-byte-aligned
// memory, built in the bound kernel's Shoup quotient convention
// (NttKernel::shoup_shift), so the vector kernels stream contiguous cache
// lines.  All kernels fully reduce their outputs, so results are
// bit-identical across kernel choices.
#pragma once

#include <cstdint>
#include <vector>

#include "ntt/kernels.h"
#include "ntt/modarith.h"

namespace primer {

// Bit-reversal of the low `bits` bits of v — the slot ordering the
// Cooley–Tukey butterflies produce.  Shared by the twiddle-table builder
// and the Galois NTT permutation tables (HeContext::galois_ntt_table), so
// any index-ordering change stays in one place.
inline std::size_t bit_reverse(std::size_t v, int bits) {
  std::size_t r = 0;
  for (int i = 0; i < bits; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

class Ntt {
 public:
  // `n` must be a power of two; `p` must satisfy p ≡ 1 (mod 2n).
  Ntt(std::size_t n, u64 p);

  std::size_t degree() const { return n_; }
  u64 modulus() const { return p_; }
  // Name of the kernel set this transform dispatches to ("scalar", "avx2",
  // "avx512", "avx512ifma").
  const char* kernel_name() const { return kernel_->name; }

  // In-place forward negacyclic NTT (coefficient -> evaluation domain) over
  // a length-n span.  This is the hot-path entry: no allocation, no size
  // check, memory streamed directly by the kernel.
  void forward(u64* a) const {
    kernel_->fwd_ntt(a, n_, fwd_w_.data(), fwd_wq_.data(), p_);
  }

  // Forward transform WITHOUT the final [0, p) correction sweep: output is
  // congruent to forward() limb for limb but lives in the lazy range
  // [0, 4p).  Consumers must accept redundant residues (reduce_span,
  // shoup_mul_acc_lazy2) — the key-switch digit staging uses this to skip
  // one full pass over every digit polynomial.
  void forward_lazy_out(u64* a) const {
    kernel_->fwd_ntt_lazy(a, n_, fwd_w_.data(), fwd_wq_.data(), p_);
  }

  // In-place inverse transform (evaluation -> coefficient domain).
  void inverse(u64* a) const {
    kernel_->inv_ntt(a, n_, inv_w_.data(), inv_wq_.data(), n_inv_,
                     n_inv_shoup_, p_);
  }

  // Checked vector overloads (encoder, tests, schoolbook comparisons).
  void forward(std::vector<u64>& a) const;
  void inverse(std::vector<u64>& a) const;

  // Batched forward transforms over independent polynomials, parallelized
  // across the global executor (common/parallel.h).  Each polynomial is
  // transformed exactly as by forward(), so results are bit-identical to
  // the serial loop regardless of thread count.
  void forward_batch(std::vector<std::vector<u64>>& polys) const;

  // out[i] = a[i] * b[i] mod p over length-n spans (Barrett constants are
  // precomputed members — nothing is rebuilt per call).
  void pointwise(const u64* a, const u64* b, u64* out) const {
    kernel_->mul(out, a, b, n_, p_, barrett_.ratio_hi(), barrett_.ratio_lo());
  }
  // out[i] = (out[i] + a[i] * b[i]) mod p — fused accumulate for the
  // packed-matmul inner loop.
  void pointwise_accumulate(const u64* a, const u64* b, u64* out) const {
    kernel_->mul_acc(out, a, b, n_, p_, barrett_.ratio_hi(),
                     barrett_.ratio_lo());
  }

  // Checked vector overload.
  void pointwise(const std::vector<u64>& a, const std::vector<u64>& b,
                 std::vector<u64>& out) const;

  // Full negacyclic polynomial product a * b mod (x^n + 1, p).
  std::vector<u64> negacyclic_multiply(std::vector<u64> a,
                                       std::vector<u64> b) const;

  // The kernel set bound to this transform (elementwise limb ops share it).
  const NttKernel& kernel() const { return *kernel_; }
  const Barrett& barrett() const { return barrett_; }

 private:
  std::size_t n_;
  int log_n_;
  u64 p_;
  Barrett barrett_;
  const NttKernel* kernel_;
  // Shoup operand/quotient twiddle tables, bit-reversed order, aligned.
  AlignedU64 fwd_w_, fwd_wq_;   // psi powers
  AlignedU64 inv_w_, inv_wq_;   // psi^-1 powers
  u64 n_inv_ = 0, n_inv_shoup_ = 0;
};

}  // namespace primer
