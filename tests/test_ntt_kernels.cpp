// Kernel-layer tests: randomized bit-equality of every vector tier (avx2,
// avx512, avx512ifma) against the scalar reference across the primes.cpp
// moduli sweep and degrees 2^10..2^13, a full-table property test at the
// dispatch-boundary moduli (2^50 for IFMA, 2^52, 2^61 for the lazy bound),
// the lazy-output forward NTT contract, the 128-bit Barrett reduction, the
// PRIMER_NTT_KERNEL dispatch override, and the RnsPoly flat-layout /
// serialization round-trip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "he/encoder.h"
#include "he/he.h"
#include "ntt/kernels.h"
#include "ntt/ntt.h"
#include "ntt/primes.h"

namespace primer {
namespace {

// RAII environment-variable override (restores the prior value on exit).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

std::vector<u64> random_poly(Rng& rng, std::size_t n, u64 p) {
  std::vector<u64> v(n);
  rng.fill_uniform_mod(v, p);
  return v;
}

bool fully_reduced(const std::vector<u64>& v, u64 p) {
  for (u64 x : v) {
    if (x >= p) return false;
  }
  return true;
}

// The moduli sweep: one prime per bit size that primes.cpp can produce for
// the degree, matching the library's parameter profiles (40/45/50-bit) plus
// the extremes of the supported range.
std::vector<u64> moduli_sweep(std::size_t n) {
  std::vector<u64> out;
  for (int bits : {30, 40, 45, 50, 60}) {
    out.push_back(generate_ntt_primes(bits, n, 1)[0]);
  }
  return out;
}

// Kernel tiers whose availability and modulus bound admit p, by their
// PRIMER_NTT_KERNEL names.  Mirrors the dispatch_kernel gating: the lazy /
// Barrett headroom bound 2^61 for avx2/avx512, 4p < 2^52 (p < 2^50) for
// avx512ifma.
std::vector<const char*> tiers_for(u64 p) {
  std::vector<const char*> out = {"scalar"};
  if (avx2_available() && p < (u64{1} << 61)) out.push_back("avx2");
  if (avx512_available() && p < (u64{1} << 61)) out.push_back("avx512");
  if (avx512ifma_available() && p < (u64{1} << 50)) {
    out.push_back("avx512ifma");
  }
  return out;
}

// Shoup quotient in a kernel set's convention (floor(w * 2^shift / p)).
u64 shoup_quotient(u64 w, u64 p, std::uint32_t shift) {
  return static_cast<u64>((static_cast<u128>(w) << shift) / p);
}

TEST(Kernels, ScalarAvx2NttBitEquality) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernels unavailable";
  const NttKernel& sc = scalar_kernel();
  const NttKernel& vx = *avx2_kernel();
  Rng rng(7);
  for (std::size_t n : {std::size_t{1024}, std::size_t{2048},
                        std::size_t{4096}, std::size_t{8192}}) {
    for (u64 p : moduli_sweep(n)) {
      // Build twiddles once via an Ntt (tables are kernel-independent).
      ScopedEnv env("PRIMER_NTT_KERNEL", "scalar");
      const Ntt ntt(n, p);
      ASSERT_STREQ(ntt.kernel_name(), "scalar");

      const auto original = random_poly(rng, n, p);
      std::vector<u64> a = original, b = original;
      ntt.forward(a.data());  // scalar (bound at construction)
      // Drive the AVX2 kernel directly over the same twiddle tables by
      // round-tripping: forward with scalar must equal forward with avx2.
      {
        ScopedEnv env2("PRIMER_NTT_KERNEL", "avx2");
        const Ntt ntt_vx(n, p);
        ASSERT_STREQ(ntt_vx.kernel_name(), "avx2");
        ntt_vx.forward(b.data());
        EXPECT_EQ(a, b) << "forward mismatch n=" << n << " p=" << p;
        EXPECT_TRUE(fully_reduced(b, p));
        ntt_vx.inverse(b.data());
        EXPECT_EQ(b, original) << "avx2 round trip n=" << n << " p=" << p;
      }
      ntt.inverse(a.data());
      EXPECT_EQ(a, original) << "scalar round trip n=" << n << " p=" << p;
      (void)sc;
      (void)vx;
    }
  }
}

TEST(Kernels, ScalarAvx2ElementwiseBitEquality) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernels unavailable";
  const NttKernel& sc = scalar_kernel();
  const NttKernel& vx = *avx2_kernel();
  Rng rng(11);
  const std::size_t n = 1027;  // odd length exercises the vector tails
  for (u64 p : moduli_sweep(1024)) {
    const Barrett br(p);
    auto a = random_poly(rng, n, p);
    auto b = random_poly(rng, n, p);
    // Edge values at both ends.
    a[0] = 0;
    b[0] = 0;
    a[1] = p - 1;
    b[1] = p - 1;
    a[2] = 0;
    b[2] = p - 1;

    std::vector<u64> out_sc(n), out_vx(n);
    sc.add(out_sc.data(), a.data(), b.data(), n, p);
    vx.add(out_vx.data(), a.data(), b.data(), n, p);
    EXPECT_EQ(out_sc, out_vx) << "add p=" << p;

    sc.sub(out_sc.data(), a.data(), b.data(), n, p);
    vx.sub(out_vx.data(), a.data(), b.data(), n, p);
    EXPECT_EQ(out_sc, out_vx) << "sub p=" << p;

    sc.neg(out_sc.data(), a.data(), n, p);
    vx.neg(out_vx.data(), a.data(), n, p);
    EXPECT_EQ(out_sc, out_vx) << "neg p=" << p;

    sc.mul(out_sc.data(), a.data(), b.data(), n, p, br.ratio_hi(),
           br.ratio_lo());
    vx.mul(out_vx.data(), a.data(), b.data(), n, p, br.ratio_hi(),
           br.ratio_lo());
    EXPECT_EQ(out_sc, out_vx) << "mul p=" << p;
    EXPECT_TRUE(fully_reduced(out_vx, p));
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(out_vx[i], mul_mod(a[i], b[i], p)) << "mul vs naive i=" << i;
    }

    auto acc_sc = random_poly(rng, n, p);
    auto acc_vx = acc_sc;
    sc.mul_acc(acc_sc.data(), a.data(), b.data(), n, p, br.ratio_hi(),
               br.ratio_lo());
    vx.mul_acc(acc_vx.data(), a.data(), b.data(), n, p, br.ratio_hi(),
               br.ratio_lo());
    EXPECT_EQ(acc_sc, acc_vx) << "mul_acc p=" << p;

    const u64 w = rng.uniform(p);
    const ShoupMul s(w, p);
    sc.scalar_mul(out_sc.data(), a.data(), n, s.operand, s.quotient, p);
    vx.scalar_mul(out_vx.data(), a.data(), n, s.operand, s.quotient, p);
    EXPECT_EQ(out_sc, out_vx) << "scalar_mul p=" << p;
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(out_vx[i], mul_mod(w, a[i], p));
    }

    // Key-switch digit re-reduction of arbitrary 64-bit inputs.
    std::vector<u64> wide(n);
    for (std::size_t i = 0; i < n; ++i) {
      wide[i] = (rng.uniform(u64{1} << 32) << 32) | rng.uniform(u64{1} << 32);
    }
    wide[0] = 0;
    wide[1] = ~u64{0};
    wide[2] = p;
    wide[3] = p - 1;
    sc.reduce_span(out_sc.data(), wide.data(), n, p, br.ratio_hi());
    vx.reduce_span(out_vx.data(), wide.data(), n, p, br.ratio_hi());
    EXPECT_EQ(out_sc, out_vx) << "reduce_span p=" << p;
    EXPECT_TRUE(fully_reduced(out_vx, p));
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(out_vx[i], wide[i] % p) << "reduce_span vs naive i=" << i;
    }

    // Shoup-lazy accumulation with elementwise precomputed quotients, and
    // the fused [0,2p)-canonicalize-and-add that closes the chain.
    std::vector<u64> w_shoup(n);
    for (std::size_t i = 0; i < n; ++i) {
      w_shoup[i] = static_cast<u64>((static_cast<u128>(b[i]) << 64) / p);
    }
    std::vector<u64> lane_sc(n, 0), lane_vx(n, 0);
    std::vector<u64> lane2_sc(n, 0), lane2_vx(n, 0);
    std::vector<u64> a_shoup(n);
    for (std::size_t i = 0; i < n; ++i) {
      a_shoup[i] = static_cast<u64>((static_cast<u128>(a[i]) << 64) / p);
    }
    for (int d = 0; d < 3; ++d) {
      sc.shoup_mul_acc_lazy2(lane_sc.data(), lane2_sc.data(), a.data(),
                             b.data(), w_shoup.data(), a.data(),
                             a_shoup.data(), n, p);
      vx.shoup_mul_acc_lazy2(lane_vx.data(), lane2_vx.data(), a.data(),
                             b.data(), w_shoup.data(), a.data(),
                             a_shoup.data(), n, p);
    }
    EXPECT_EQ(lane_sc, lane_vx) << "shoup_mul_acc_lazy2 ch0 p=" << p;
    EXPECT_EQ(lane2_sc, lane2_vx) << "shoup_mul_acc_lazy2 ch1 p=" << p;
    auto acc2_sc = random_poly(rng, n, p);
    auto acc2_vx = acc2_sc;
    sc.add_reduce2p(acc2_sc.data(), acc2_sc.data(), lane_sc.data(), n, p);
    vx.add_reduce2p(acc2_vx.data(), acc2_vx.data(), lane_vx.data(), n, p);
    EXPECT_EQ(acc2_sc, acc2_vx) << "add_reduce2p p=" << p;
    EXPECT_TRUE(fully_reduced(acc2_vx, p));
    for (std::size_t i = 0; i < 64; ++i) {
      u64 x = lane_vx[i];
      if (x >= p) x -= p;  // canonicalized lane residue
      const u64 prod = mul_mod(a[i], b[i], p);
      EXPECT_EQ(x, add_mod(add_mod(prod, prod, p), prod, p))
          << "shoup lane residue i=" << i;
    }
  }
}

TEST(Kernels, ForwardNttAcceptsLazyInputsBitExact) {
  // The key-switch digit staging feeds RAW residues of one modulus into
  // another modulus' forward transform whenever q_i < 4*q_j, relying on the
  // lazy butterflies' [0, 4p) input contract.  The fully-reduced output
  // must be bit-identical to reducing the inputs first — on both kernels.
  Rng rng(13);
  for (const std::size_t n : {std::size_t{64}, std::size_t{1024}}) {
    for (u64 p : moduli_sweep(n)) {
      if (p >= (u64{1} << 62)) continue;  // 4p must fit in 64 bits
      const Ntt ntt(n, p);
      const u64 bound = 4 * p - 1;  // inputs < 4p
      std::vector<u64> raw(n);
      rng.fill_uniform_mod(raw, bound);
      raw[0] = 0;
      raw[1] = bound - 1;
      raw[2] = p;
      raw[3] = 2 * p + 1;
      std::vector<u64> reduced(n);
      for (std::size_t i = 0; i < n; ++i) reduced[i] = raw[i] % p;
      std::vector<u64> out_raw = raw, out_red = reduced;
      ntt.forward(out_raw.data());
      ntt.forward(out_red.data());
      EXPECT_EQ(out_raw, out_red)
          << "kernel " << ntt.kernel_name() << " p=" << p << " n=" << n;
    }
  }
}

// Full-kernel-table bit-equality property test at the dispatch-boundary
// moduli: just below/above the IFMA bound 2^50, just below/above 2^52 (the
// sub-52-bit ceiling the IFMA convention is built around), and just below
// the 2^61 lazy bound.  Every tier whose bound admits the modulus must
// produce outputs bit-identical to scalar; Shoup-lazy accumulator lanes are
// compared after canonicalization because the [0, 2p) representatives may
// legitimately differ across quotient conventions.
TEST(Kernels, KernelTableBitEqualityAtDispatchBoundaries) {
  Rng rng(29);
  const std::size_t n = 1024;
  for (int bits : {40, 50, 51, 52, 53, 60, 61}) {
    const u64 p = generate_ntt_primes(bits, n, 1)[0];
    const Barrett br(p);
    // Scalar reference transforms and inputs.
    const auto poly = random_poly(rng, n, p);
    std::vector<u64> fwd_ref = poly;
    {
      ScopedEnv env("PRIMER_NTT_KERNEL", "scalar");
      const Ntt ntt(n, p);
      ntt.forward(fwd_ref.data());
    }
    auto a = random_poly(rng, n, p);
    auto b = random_poly(rng, n, p);
    a[0] = 0;
    b[0] = 0;
    a[1] = p - 1;
    b[1] = p - 1;
    // Digit-shaped inputs for the Shoup-lazy accumulation: the key-switch
    // feeds lazy forward-NTT outputs in [0, 4p) (on the IFMA tier those
    // are < 2^52 by its p < 2^50 bound — the tier's input contract).
    std::vector<u64> digits(n);
    rng.fill_uniform_mod(digits, 4 * p - 1);
    std::vector<u64> wide(n);
    for (auto& v : wide) {
      v = (rng.uniform(u64{1} << 32) << 32) | rng.uniform(u64{1} << 32);
    }

    const NttKernel& sc = scalar_kernel();
    std::vector<u64> out_sc(n), out_k(n);
    for (const char* tier : tiers_for(p)) {
      if (std::strcmp(tier, "scalar") == 0) continue;
      ScopedEnv env("PRIMER_NTT_KERNEL", tier);
      const Ntt ntt(n, p);
      ASSERT_STREQ(ntt.kernel_name(), tier) << "bits=" << bits;
      const NttKernel& kern = ntt.kernel();

      // Transforms: fully reduced outputs must match scalar exactly.
      std::vector<u64> f = poly;
      ntt.forward(f.data());
      EXPECT_EQ(f, fwd_ref) << tier << " forward bits=" << bits;
      EXPECT_TRUE(fully_reduced(f, p));
      ntt.inverse(f.data());
      EXPECT_EQ(f, poly) << tier << " round trip bits=" << bits;

      // Convention-free elementwise table vs scalar, bit for bit.
      sc.add(out_sc.data(), a.data(), b.data(), n, p);
      kern.add(out_k.data(), a.data(), b.data(), n, p);
      EXPECT_EQ(out_sc, out_k) << tier << " add bits=" << bits;
      sc.sub(out_sc.data(), a.data(), b.data(), n, p);
      kern.sub(out_k.data(), a.data(), b.data(), n, p);
      EXPECT_EQ(out_sc, out_k) << tier << " sub bits=" << bits;
      sc.neg(out_sc.data(), a.data(), n, p);
      kern.neg(out_k.data(), a.data(), n, p);
      EXPECT_EQ(out_sc, out_k) << tier << " neg bits=" << bits;
      sc.mul(out_sc.data(), a.data(), b.data(), n, p, br.ratio_hi(),
             br.ratio_lo());
      kern.mul(out_k.data(), a.data(), b.data(), n, p, br.ratio_hi(),
               br.ratio_lo());
      EXPECT_EQ(out_sc, out_k) << tier << " mul bits=" << bits;
      auto acc_sc = a;
      auto acc_k = a;
      sc.mul_acc(acc_sc.data(), a.data(), b.data(), n, p, br.ratio_hi(),
                 br.ratio_lo());
      kern.mul_acc(acc_k.data(), a.data(), b.data(), n, p, br.ratio_hi(),
                   br.ratio_lo());
      EXPECT_EQ(acc_sc, acc_k) << tier << " mul_acc bits=" << bits;
      sc.reduce_span(out_sc.data(), wide.data(), n, p, br.ratio_hi());
      kern.reduce_span(out_k.data(), wide.data(), n, p, br.ratio_hi());
      EXPECT_EQ(out_sc, out_k) << tier << " reduce_span bits=" << bits;
      sc.add_reduce2p(out_sc.data(), a.data(), digits.data(), n, p);
      kern.add_reduce2p(out_k.data(), a.data(), digits.data(), n, p);
      EXPECT_EQ(out_sc, out_k) << tier << " add_reduce2p bits=" << bits;

      // Shoup ops: tables in the tier's own convention; fully reduced
      // outputs must equal naive modular arithmetic.
      const u64 w = b[3] % p;
      kern.scalar_mul(out_k.data(), a.data(), n, w,
                      shoup_quotient(w, p, kern.shoup_shift), p);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out_k[i], mul_mod(w, a[i], p))
            << tier << " scalar_mul i=" << i << " bits=" << bits;
      }
      std::vector<u64> w0(n), w0q(n), w1(n), w1q(n);
      for (std::size_t i = 0; i < n; ++i) {
        w0[i] = a[i] % p;
        w1[i] = b[i] % p;
        w0q[i] = shoup_quotient(w0[i], p, kern.shoup_shift);
        w1q[i] = shoup_quotient(w1[i], p, kern.shoup_shift);
      }
      std::vector<u64> lane0(n, 0), lane1(n, 0);
      for (int d = 0; d < 3; ++d) {
        kern.shoup_mul_acc_lazy2(lane0.data(), lane1.data(), digits.data(),
                                 w0.data(), w0q.data(), w1.data(), w1q.data(),
                                 n, p);
      }
      for (std::size_t i = 0; i < n; ++i) {
        // Canonicalize the [0, 2p) lanes: representatives may differ
        // across Shoup conventions, residues may not.
        u64 l0 = lane0[i] >= p ? lane0[i] - p : lane0[i];
        u64 l1 = lane1[i] >= p ? lane1[i] - p : lane1[i];
        const u64 x = br.reduce(digits[i]);
        const u64 p0 = mul_mod(w0[i], x, p);
        const u64 p1 = mul_mod(w1[i], x, p);
        ASSERT_EQ(l0, add_mod(add_mod(p0, p0, p), p0, p))
            << tier << " shoup lane0 i=" << i << " bits=" << bits;
        ASSERT_EQ(l1, add_mod(add_mod(p1, p1, p), p1, p))
            << tier << " shoup lane1 i=" << i << " bits=" << bits;
      }
    }
  }
}

// forward_lazy_out must be congruent to forward limb for limb — one
// reduce_span pass over the lazy output reproduces the canonical transform
// exactly, on every tier, including the n < 16 scalar-fallback shapes.
TEST(Kernels, ForwardLazyOutThenReduceEqualsForward) {
  Rng rng(31);
  for (const std::size_t n : {std::size_t{8}, std::size_t{64},
                              std::size_t{1024}}) {
    for (u64 p : moduli_sweep(1024)) {  // 2*1024 | p-1 => 2n | p-1 for n<=1024
      const Barrett br(p);
      for (const char* tier : tiers_for(p)) {
        ScopedEnv env("PRIMER_NTT_KERNEL", tier);
        const Ntt ntt(n, p);
        ASSERT_STREQ(ntt.kernel_name(), tier);
        auto want = random_poly(rng, n, p);
        auto lazy = want;
        ntt.forward(want.data());
        ntt.forward_lazy_out(lazy.data());
        // The lazy output stays in [0, 4p).
        for (u64 x : lazy) ASSERT_LT(x, 4 * p);
        ntt.kernel().reduce_span(lazy.data(), lazy.data(), n, p,
                                 br.ratio_hi());
        EXPECT_EQ(lazy, want) << tier << " n=" << n << " p=" << p;
      }
    }
  }
}

TEST(Kernels, NegacyclicMultiplyAgreesAcrossKernels) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 kernels unavailable";
  Rng rng(13);
  const std::size_t n = 1024;
  const u64 p = generate_ntt_primes(45, n, 1)[0];
  const auto a = random_poly(rng, n, p);
  const auto b = random_poly(rng, n, p);
  ScopedEnv env("PRIMER_NTT_KERNEL", "scalar");
  const Ntt ntt_sc(n, p);
  std::vector<u64> want = ntt_sc.negacyclic_multiply(a, b);
  {
    ScopedEnv env2("PRIMER_NTT_KERNEL", "avx2");
    const Ntt ntt_vx(n, p);
    EXPECT_EQ(ntt_vx.negacyclic_multiply(a, b), want);
  }
}

TEST(Kernels, PointwiseAccumulateMatchesMulThenAdd) {
  Rng rng(17);
  const std::size_t n = 2048;
  const u64 p = generate_ntt_primes(50, n, 1)[0];
  const Ntt ntt(n, p);
  const auto a = random_poly(rng, n, p);
  const auto b = random_poly(rng, n, p);
  auto acc = random_poly(rng, n, p);
  auto want = acc;
  std::vector<u64> prod;
  ntt.pointwise(a, b, prod);
  for (std::size_t i = 0; i < n; ++i) want[i] = add_mod(want[i], prod[i], p);
  ntt.pointwise_accumulate(a.data(), b.data(), acc.data());
  EXPECT_EQ(acc, want);
}

TEST(Kernels, BarrettReduce128MatchesNaive) {
  Rng rng(19);
  for (u64 m : {u64{65537}, u64{1000003}, (u64{1} << 50) - 27,
                generate_ntt_primes(62, 1024, 1)[0]}) {
    const Barrett br(m);
    for (int i = 0; i < 2000; ++i) {
      const u128 a = (static_cast<u128>(rng.next()) << 64) | rng.next();
      EXPECT_EQ(br.reduce128(a), static_cast<u64>(a % m));
    }
    // Largest product of residues, and the extremes.
    const u128 max_prod = static_cast<u128>(m - 1) * (m - 1);
    EXPECT_EQ(br.reduce128(max_prod), static_cast<u64>(max_prod % m));
    EXPECT_EQ(br.reduce128(0), 0u);
    EXPECT_EQ(br.reduce128(~static_cast<u128>(0)),
              static_cast<u64>(~static_cast<u128>(0) % m));
  }
}

TEST(Kernels, DispatchHonorsEnvOverrideAndModulusBound) {
  const std::size_t n = 1024;
  const u64 p = generate_ntt_primes(45, n, 1)[0];  // within every bound
  {
    ScopedEnv env("PRIMER_NTT_KERNEL", "scalar");
    EXPECT_STREQ(Ntt(n, p).kernel_name(), "scalar");
  }
  {
    ScopedEnv env("PRIMER_NTT_KERNEL", "avx2");
    EXPECT_STREQ(Ntt(n, p).kernel_name(),
                 avx2_available() ? "avx2" : "scalar");
  }
  {
    ScopedEnv env("PRIMER_NTT_KERNEL", "avx512");
    EXPECT_STREQ(Ntt(n, p).kernel_name(),
                 avx512_available() ? "avx512" : "scalar");
  }
  {
    ScopedEnv env("PRIMER_NTT_KERNEL", "avx512ifma");
    EXPECT_STREQ(Ntt(n, p).kernel_name(),
                 avx512ifma_available() ? "avx512ifma" : "scalar");
  }
  {
    // Automatic dispatch: widest available tier whose bound admits p.
    ScopedEnv env("PRIMER_NTT_KERNEL", nullptr);
    const char* want = avx512ifma_available() ? "avx512ifma"
                       : avx512_available()   ? "avx512"
                       : avx2_available()     ? "avx2"
                                              : "scalar";
    EXPECT_STREQ(Ntt(n, p).kernel_name(), want);
  }
  {
    // Unknown values are rejected loudly, not silently mapped to scalar.
    ScopedEnv env("PRIMER_NTT_KERNEL", "neon");
    EXPECT_THROW((void)Ntt(n, p), std::invalid_argument);
  }
  // The IFMA tier requires 4p < 2^52: a 51-bit prime (>= 2^50) must fall
  // back even when the CPU has IFMA — explicitly requested or automatic.
  const u64 p51 = generate_ntt_primes(51, n, 1)[0];
  ASSERT_GE(p51, u64{1} << 50);
  {
    ScopedEnv env("PRIMER_NTT_KERNEL", "avx512ifma");
    EXPECT_STREQ(Ntt(n, p51).kernel_name(), "scalar");
  }
  {
    ScopedEnv env("PRIMER_NTT_KERNEL", nullptr);
    const char* want = avx512_available() ? "avx512"
                       : avx2_available() ? "avx2"
                                          : "scalar";
    EXPECT_STREQ(Ntt(n, p51).kernel_name(), want);
  }
  // Moduli at or above 2^61 must never take any vector path (the lazy
  // ranges would overflow): a 62-bit prime lies in [2^61, 2^62).
  const u64 big = generate_ntt_primes(62, n, 1)[0];
  ASSERT_GE(big, u64{1} << 61);
  ScopedEnv env("PRIMER_NTT_KERNEL", nullptr);
  EXPECT_STREQ(Ntt(n, big).kernel_name(), "scalar");
}

TEST(RnsPolyFlat, LimbAccessorsViewOneContiguousBuffer) {
  const std::size_t k = 3, n = 256;
  RnsPoly poly(k, n, false);
  EXPECT_EQ(poly.rns_size(), k);
  EXPECT_EQ(poly.degree(), n);
  EXPECT_EQ(poly.word_count(), k * n);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(poly.limb(i), poly.data() + i * n);
    EXPECT_EQ(poly.limb_span(i).size(), n);
    for (std::size_t j = 0; j < n; ++j) poly.limb(i)[j] = i * n + j;
  }
  // Limb-major flat order.
  for (std::size_t w = 0; w < k * n; ++w) EXPECT_EQ(poly.data()[w], w);
  // Value semantics: deep copy, independent buffers.
  RnsPoly copy = poly;
  copy.limb(1)[5] ^= 1;
  EXPECT_NE(copy.limb(1)[5], poly.limb(1)[5]);
}

TEST(RnsPolyFlat, SerializationRoundTripsBitExactly) {
  HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(23);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);

  std::vector<u64> vals(encoder.slot_count());
  rng.fill_uniform_mod(vals, ctx.t());
  const Ciphertext ct = enc.encrypt(encoder.encode(vals));

  ByteWriter w;
  eval.serialize(ct, w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const Ciphertext back = eval.deserialize(r);
  EXPECT_TRUE(r.done());

  ASSERT_EQ(back.parts.size(), ct.parts.size());
  for (std::size_t i = 0; i < ct.parts.size(); ++i) {
    EXPECT_EQ(back.parts[i].ntt_form, ct.parts[i].ntt_form);
    ASSERT_TRUE(back.parts[i].same_shape(ct.parts[i]));
    EXPECT_EQ(std::memcmp(back.parts[i].data(), ct.parts[i].data(),
                          ct.parts[i].word_count() * sizeof(u64)),
              0);
  }
  // The parts are all a serialized ciphertext carries: per part a domain
  // flag, the shape (u32 limbs, u64 degree) and the limbs.
  std::size_t part_bytes = 0;
  for (const auto& part : ct.parts) {
    part_bytes += 1 + 4 + 8 + part.word_count() * sizeof(u64);
  }
  EXPECT_EQ(bytes.size(), 4 + part_bytes);
  EXPECT_EQ(encoder.decode(dec.decrypt(back)), vals);
}

TEST(RnsPolyFlat, DeserializeRejectsShapeMismatch) {
  HeContext ctx(make_params(HeProfile::kTest2048));
  const Evaluator eval(ctx);
  const auto attempt = [&](std::uint32_t k, u64 n) {
    ByteWriter w;
    w.u32(1);  // one part
    w.u8(0);   // coeff form
    w.u32(k);
    w.u64(n);
    // No limb payload: the shape check must fire before any read.
    const auto bytes = w.take();
    ByteReader r(bytes);
    return eval.deserialize(r);
  };
  // Oversized and undersized shapes are both hostile: downstream kernels
  // stream exactly ctx.degree() words per limb through unchecked pointers.
  EXPECT_THROW((void)attempt(1000, ctx.degree()), std::out_of_range);
  EXPECT_THROW((void)attempt(1, 64), std::out_of_range);
  EXPECT_THROW(
      (void)attempt(static_cast<std::uint32_t>(ctx.rns_size()), 64),
      std::out_of_range);
}

}  // namespace
}  // namespace primer
