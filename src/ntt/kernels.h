// Vectorized NTT / limb-op kernel layer with runtime dispatch.
//
// A kernel set is a table of function pointers implementing the negacyclic
// NTT butterflies and the elementwise RNS limb operations on raw u64 spans.
// Four tiers exist.  Where a vector kernel lost to scalar in every
// measured rep (README, "SIMD NTT kernels"), its tier keeps scalar's entry:
//   scalar      — portable reference (always available), every entry
//   avx2        — 4-lane (kernels_avx2.cpp, -mavx2): every entry except
//                 reduce_span and shoup_mul_acc_lazy2, whose AVX2 kernels
//                 lost to scalar in every rep and so run scalar code
//   avx512      — 8-lane, AVX512-DQ vpmullq low-half products
//                 (kernels_avx512.cpp, -mavx512f -mavx512dq), every entry
//   avx512ifma  — avx512 with the NTT butterflies, scalar_mul and the
//                 Shoup-lazy accumulation rebuilt on vpmadd52 52-bit
//                 multiply-adds (same TU, -mavx512ifma); requires
//                 4p < 2^52, i.e. p < 2^50
// All use HEXL-style lazy reduction internally — butterfly values live in
// the redundant range [0, 4p) (forward) / [0, 2p) (inverse) and a single
// correction sweep at the end brings them back to [0, p) — so every kernel
// FULLY REDUCES its outputs and all tiers are bit-identical (enforced by
// tests/test_ntt_kernels.cpp).  The protocol therefore stays deterministic
// across machines regardless of which kernel dispatch picks.
//
// Shoup quotient convention: each kernel set declares `shoup_shift` — the
// scale of every precomputed quotient it consumes (twiddle tables, key
// Shoup tables, scalar_mul operands): floor(w * 2^shoup_shift / p).  The
// scalar/avx2/avx512 tiers use 64 (one 64x64 high-half multiply per Shoup
// product); avx512ifma uses 52 so the quotient estimate is a single
// vpmadd52hi.  Table builders (Ntt, append_kswitch_digit,
// HeContext::scalar_multiply_inplace) must honor the shift of the kernel
// set that will consume the table.
//
// Dispatch: dispatch_kernel(p) picks the widest tier that (a) was compiled
// in, (b) the CPU reports, and (c) whose modulus bound admits p — p < 2^61
// for avx2/avx512 (the lazy/Barrett bounds need headroom above 4p),
// p < 2^50 for avx512ifma (every lazy intermediate must fit 52 bits).  The
// PRIMER_NTT_KERNEL environment variable (values: "scalar", "avx2",
// "avx512", "avx512ifma") overrides the choice for testing; an unavailable
// request falls back to scalar with a one-time warning per requested
// value, and an unknown value throws std::invalid_argument listing the
// valid names.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>

#include "ntt/modarith.h"

namespace primer {

// 64-byte-aligned heap buffer of u64 with value semantics — the backing
// store for RnsPoly limbs and NTT twiddle tables, sized so kernels stream
// cache-line-aligned memory.  Intentionally minimal: exact-size, no spare
// capacity, no iterator surface.
class AlignedU64 {
 public:
  static constexpr std::size_t kAlign = 64;

  AlignedU64() = default;
  explicit AlignedU64(std::size_t n, u64 fill = 0) { assign(n, fill); }

  AlignedU64(const AlignedU64& o) { copy_from(o); }
  AlignedU64& operator=(const AlignedU64& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  AlignedU64(AlignedU64&& o) noexcept : buf_(o.buf_), size_(o.size_) {
    o.buf_ = nullptr;
    o.size_ = 0;
  }
  AlignedU64& operator=(AlignedU64&& o) noexcept {
    if (this != &o) {
      release();
      buf_ = o.buf_;
      size_ = o.size_;
      o.buf_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  ~AlignedU64() { release(); }

  void assign(std::size_t n, u64 fill) {
    reallocate(n);
    for (std::size_t i = 0; i < size_; ++i) buf_[i] = fill;
  }

  u64* data() { return buf_; }
  const u64* data() const { return buf_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  u64& operator[](std::size_t i) { return buf_[i]; }
  const u64& operator[](std::size_t i) const { return buf_[i]; }

 private:
  void reallocate(std::size_t n) {
    release();
    if (n != 0) {
      buf_ = static_cast<u64*>(
          ::operator new[](n * sizeof(u64), std::align_val_t{kAlign}));
    }
    size_ = n;
  }
  void copy_from(const AlignedU64& o) {
    reallocate(o.size_);
    if (size_ != 0) std::memcpy(buf_, o.buf_, size_ * sizeof(u64));
  }
  void release() {
    if (buf_ != nullptr) {
      ::operator delete[](buf_, std::align_val_t{kAlign});
      buf_ = nullptr;
    }
  }

  u64* buf_ = nullptr;
  std::size_t size_ = 0;
};

// One kernel set.  All spans are length n unless noted; `out` may alias `a`
// (in-place) for the elementwise ops.  Twiddle tables (w, w_shoup) are the
// Shoup operand/quotient pairs in bit-reversed order, as built by Ntt.
struct NttKernel {
  const char* name;

  // Scale of every precomputed Shoup quotient this set consumes:
  // floor(w * 2^shoup_shift / p).  64 for the scalar/avx2/avx512 tiers, 52
  // for avx512ifma.  Twiddle tables, key Shoup tables, and scalar_mul
  // operands are NOT interchangeable across sets with different shifts.
  std::uint32_t shoup_shift;

  // In-place forward negacyclic NTT (Cooley–Tukey DIT, merged psi powers).
  // Input may be anywhere in [0, 4p) (the first-stage conditional subtract
  // absorbs lazy inputs); output fully reduced in [0, p).
  void (*fwd_ntt)(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                  u64 p);
  // Forward NTT without the final [0, p) correction sweep: same butterfly
  // walk as fwd_ntt, output left in the lazy range [0, 4p).  The output is
  // congruent to fwd_ntt's limb for limb but NOT canonical — callers must
  // feed it only to consumers that accept redundant residues (reduce_span,
  // shoup_mul_acc_lazy2) or reduce it themselves.  Key-switch digit
  // transforms use this to drop one full pass per digit limb.
  void (*fwd_ntt_lazy)(u64* a, std::size_t n, const u64* w,
                       const u64* w_shoup, u64 p);
  // In-place inverse transform (Gentleman–Sande), including the 1/n scaling.
  void (*inv_ntt)(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                  u64 n_inv, u64 n_inv_shoup, u64 p);

  // out[i] = a[i] + b[i] mod p
  void (*add)(u64* out, const u64* a, const u64* b, std::size_t n, u64 p);
  // out[i] = a[i] - b[i] mod p
  void (*sub)(u64* out, const u64* a, const u64* b, std::size_t n, u64 p);
  // out[i] = -a[i] mod p
  void (*neg)(u64* out, const u64* a, std::size_t n, u64 p);
  // out[i] = a[i] * b[i] mod p via Barrett (ratio = floor(2^128/p) words).
  void (*mul)(u64* out, const u64* a, const u64* b, std::size_t n, u64 p,
              u64 ratio_hi, u64 ratio_lo);
  // out[i] = (out[i] + a[i] * b[i]) mod p — the packed-matmul inner loop.
  void (*mul_acc)(u64* out, const u64* a, const u64* b, std::size_t n, u64 p,
                  u64 ratio_hi, u64 ratio_lo);
  // out[i] = w * a[i] mod p with Shoup precomputation.
  void (*scalar_mul)(u64* out, const u64* a, std::size_t n, u64 w,
                     u64 w_shoup, u64 p);

  // out[i] = a[i] mod p for arbitrary 64-bit inputs (residues of a wider
  // modulus) — the key-switch digit re-reduction.  ratio_hi is the high
  // word of floor(2^128 / p) (Barrett::ratio_hi()).  May alias out == a.
  void (*reduce_span)(u64* out, const u64* a, std::size_t n, u64 p,
                      u64 ratio_hi);
  // Dual-stream Shoup-lazy accumulate: acc0[i] += a[i] * w0[i] mod⁺ p and
  // acc1[i] += a[i] * w1[i] mod⁺ p in one pass over the shared operand `a`
  // (the key-switch digit, consumed by the key's b and a limbs together).
  // w*_shoup[i] holds floor(w*[i] * 2^shoup_shift / p), built once with
  // the key (append_kswitch_digit) in this kernel set's convention.
  // Each product lands in [0, 2p) with no division and a single
  // conditional subtraction keeps the accumulators in [0, 2p) — the
  // running sums never widen past 64 bits regardless of how many digits
  // accumulate.  Requires w*[i] < p and acc* in [0, 2p) on entry; `a` may
  // be any 64-bit values on the 64-convention tiers, any value below 2^52
  // on avx512ifma (lazy forward-NTT digits in [0, 4p) qualify at its
  // p < 2^50 bound).
  void (*shoup_mul_acc_lazy2)(u64* acc0, u64* acc1, const u64* a,
                              const u64* w0, const u64* w0_shoup,
                              const u64* w1, const u64* w1_shoup,
                              std::size_t n, u64 p);
  // out[i] = (a[i] + canonical(b[i])) mod p with a fully reduced and b in
  // [0, 2p) — folds the closing correction of a shoup_mul_acc_lazy chain
  // into the accumulator add.
  void (*add_reduce2p)(u64* out, const u64* a, const u64* b, std::size_t n,
                       u64 p);
};

// The portable reference kernels (always available).
const NttKernel& scalar_kernel();

// The AVX2 kernels, or nullptr when compiled without AVX2 support.  Runtime
// CPU support is NOT checked here — use dispatch_kernel().
const NttKernel* avx2_kernel();

// True when the AVX2 kernels are compiled in and the CPU supports AVX2.
bool avx2_available();

// The AVX512-DQ kernels, or nullptr when compiled without AVX512F+DQ
// support.  Runtime CPU support is NOT checked here — use dispatch_kernel().
const NttKernel* avx512_kernel();

// True when the AVX512-DQ kernels are compiled in and the CPU reports
// AVX512F + AVX512DQ.
bool avx512_available();

// The AVX512-IFMA sub-table (52-bit Shoup convention, vpmadd52 butterflies;
// non-IFMA entries shared with the DQ tier), or nullptr when compiled
// without AVX512IFMA support.  Only valid for moduli p < 2^50.
const NttKernel* avx512ifma_kernel();

// True when the IFMA kernels are compiled in and the CPU reports
// AVX512F + AVX512DQ + AVX512IFMA.
bool avx512ifma_available();

// Kernel set for arithmetic modulo p, honoring PRIMER_NTT_KERNEL.  The env
// variable is re-read on every call so tests can toggle it between Ntt
// constructions; the result is stable for the lifetime of the objects that
// cache it.
const NttKernel& dispatch_kernel(u64 p);

}  // namespace primer
