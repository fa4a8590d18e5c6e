// Property-style sweeps (TEST_P) across the substrates' parameter spaces:
// HE homomorphism at several moduli, share-circuit round trips at several
// plaintext moduli and widths, fixed-softmax invariants across shift/size
// combinations, the fixed circuits against their references at the widest
// shipped shapes, and a smoke test at the full 128-bit-secure parameters.
#include <gtest/gtest.h>

#include <cmath>

#include "gc/fixed_circuits.h"
#include "gc/protocol.h"
#include "he/encoder.h"
#include "he/he.h"
#include "nn/model.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

// ---------------------------------------------------------------------------
// HE homomorphism under random op sequences
// ---------------------------------------------------------------------------

class HeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeRandomOps, RandomAddSubChainsMatchPlainModel) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(GetParam());
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);
  const std::uint64_t t = ctx.t();

  const std::size_t lanes = 32;
  std::vector<std::uint64_t> model(lanes);
  for (auto& v : model) v = rng.uniform(t);
  Ciphertext ct = enc.encrypt(encoder.encode(model));

  for (int op = 0; op < 30; ++op) {
    std::vector<std::uint64_t> operand(lanes);
    for (auto& v : operand) v = rng.uniform(t);
    const auto pt = encoder.encode(operand);
    switch (rng.uniform(4)) {
      case 0: {
        const auto other = enc.encrypt(pt);
        eval.add_inplace(ct, other);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + operand[i]) % t;
        }
        break;
      }
      case 1: {
        const auto other = enc.encrypt(pt);
        eval.sub_inplace(ct, other);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + t - operand[i]) % t;
        }
        break;
      }
      case 2:
        eval.add_plain_inplace(ct, pt);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + operand[i]) % t;
        }
        break;
      default:
        eval.sub_plain_inplace(ct, pt);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + t - operand[i]) % t;
        }
        break;
    }
  }
  const auto got = encoder.decode(dec.decrypt(ct));
  for (std::size_t i = 0; i < lanes; ++i) ASSERT_EQ(got[i], model[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeRandomOps,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Secure production parameters smoke test
// ---------------------------------------------------------------------------

TEST(ProdParams, FullOpSuiteAtSecureParameters) {
  const HeContext ctx(make_params(HeProfile::kProd8192));
  ASSERT_TRUE(ctx.params().secure_128);
  Rng rng(9);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);
  const auto gk = keygen.make_galois_keys({1});
  const auto rk = keygen.make_relin_key();
  const std::uint64_t t = ctx.t();

  std::vector<std::uint64_t> a = {1, 2, 3, 4}, b = {10, 20, 30, 40};
  auto ca = enc.encrypt(encoder.encode(a));
  const auto cb = enc.encrypt(encoder.encode(b));
  eval.add_inplace(ca, cb);
  eval.multiply_plain_inplace(ca, encoder.encode({2, 2, 2, 2}));
  eval.rotate_rows_inplace(ca, 1, gk);
  auto prod = eval.multiply(ca, cb);
  eval.relinearize_inplace(prod, rk);
  const auto out = encoder.decode(dec.decrypt(prod));
  // slot0 after rotate holds 2*(a1+b1); multiplied by b0.
  EXPECT_EQ(out[0], (2 * (a[1] + b[1]) % t) * b[0] % t);
  EXPECT_GT(dec.noise_budget(prod), 0.0);
}

// ---------------------------------------------------------------------------
// Share-circuit sweeps over plaintext moduli
// ---------------------------------------------------------------------------

class ShareCircuitModuli : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShareCircuitModuli, ReluRoundTripAcrossModuli) {
  const std::uint64_t t = GetParam();
  const std::size_t w = share_width(t);
  ActivationCircuitSpec spec;
  spec.t = t;
  spec.count = 2;
  spec.frac_shift = 8;
  spec.act = Activation::kRelu;
  const Circuit c = make_activation_circuit(spec);
  Rng rng(t);
  const ShareRing ring(t);
  for (int iter = 0; iter < 10; ++iter) {
    const std::int64_t bound =
        std::min<std::int64_t>(400000, static_cast<std::int64_t>(t / 2 - 1));
    std::vector<std::int64_t> vals = {rng.uniform_int(-bound, bound),
                                      rng.uniform_int(-bound, bound)};
    std::vector<bool> in_g, in_e, in_r;
    std::vector<std::uint64_t> rcs;
    for (const auto v : vals) {
      const std::uint64_t ringv = fp_to_ring(v, t);
      const std::uint64_t share1 = rng.uniform(t);
      const std::uint64_t share2 = (ringv + t - share1) % t;
      const std::uint64_t rc = rng.uniform(t);
      rcs.push_back(rc);
      const auto g = value_to_bits(share1, w);
      const auto e = value_to_bits(share2, w);
      const auto r = value_to_bits(rc, w);
      in_g.insert(in_g.end(), g.begin(), g.end());
      in_e.insert(in_e.end(), e.begin(), e.end());
      in_r.insert(in_r.end(), r.begin(), r.end());
    }
    std::vector<bool> inputs = in_g;
    inputs.insert(inputs.end(), in_e.begin(), in_e.end());
    inputs.insert(inputs.end(), in_r.begin(), in_r.end());
    const auto out = eval_circuit(c, inputs);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const std::vector<bool> bits(out.begin() + static_cast<long>(i * w),
                                   out.begin() + static_cast<long>((i + 1) * w));
      const std::int64_t got =
          ring.center(static_cast<std::int64_t>(
              (bits_to_value(bits) + rcs[i]) % t));
      EXPECT_EQ(got, activation_reference(vals[i], 8, Activation::kRelu,
                                          spec.fmt))
          << "t=" << t << " v=" << vals[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, ShareCircuitModuli,
                         ::testing::Values(1032193ULL,          // ~2^20
                                           68719403009ULL,      // ~2^36
                                           274877906951ULL));   // ~2^38

// ---------------------------------------------------------------------------
// Softmax invariants across sizes and shifts
// ---------------------------------------------------------------------------

struct SoftmaxCase {
  std::size_t count;
  std::size_t shift;
};

class SoftmaxInvariants : public ::testing::TestWithParam<SoftmaxCase> {};

TEST_P(SoftmaxInvariants, NonNegativeSumsNearOneOrderPreserved) {
  const auto [count, shift] = GetParam();
  Rng rng(count * 100 + shift);
  const FixedPointFormat fmt;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::int64_t> x(count);
    for (auto& v : x) {
      v = rng.uniform_int(-(1LL << (shift + 10)), 1LL << (shift + 10));
    }
    const auto sm = fixed_softmax_reference(x, shift, fmt);
    double total = 0;
    for (const auto s : sm) {
      ASSERT_GE(s, 0);
      total += fp_decode(s, fmt);
    }
    EXPECT_NEAR(total, 1.0, 0.15);
    // Order preservation: the max input gets the max probability.
    std::size_t argmax_in = 0, argmax_out = 0;
    for (std::size_t i = 1; i < count; ++i) {
      if (x[i] > x[argmax_in]) argmax_in = i;
      if (sm[i] > sm[argmax_out]) argmax_out = i;
    }
    EXPECT_GE(sm[argmax_in], sm[argmax_out] - fmt.scale() / 64);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SoftmaxInvariants,
    ::testing::Values(SoftmaxCase{4, 8}, SoftmaxCase{8, 8}, SoftmaxCase{30, 8},
                      SoftmaxCase{8, 24}, SoftmaxCase{16, 16}));

// ---------------------------------------------------------------------------
// Garbling is correct on the actual protocol circuits (fuzzed inputs)
// ---------------------------------------------------------------------------

TEST(GarbledProtocolCircuits, LayerNormGarbledMatchesPlain) {
  LayerNormCircuitSpec spec;
  spec.t = 1032193;
  spec.d = 4;
  spec.frac_shift = 8;
  spec.gamma.assign(4, 256);
  spec.beta.assign(4, 0);
  const Circuit c = make_layernorm_circuit(spec);
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<bool> in(static_cast<std::size_t>(c.num_inputs));
    for (auto&& b : in) b = rng.next() & 1;
    EXPECT_EQ(garbled_eval(c, in, rng), eval_circuit(c, in));
  }
}

// ---------------------------------------------------------------------------
// Interval-sized circuits equal their references at the widest shapes
// ---------------------------------------------------------------------------

// Every bus inside a fixed circuit is sized from the interval of the values
// it can carry, so a too-narrow bus would wrap only at the edges of that
// interval.  This sweep drives those edges at the widest shipped shapes
// (BERT-base: d = 768, 128 tokens) and at d = 1024, across the plaintext
// moduli the profiles use: saturation at +-16384 and 16383, one past each
// clamp threshold, half/half and constant rows (variance 0), and the ring
// extremes +-t/2.
class WidestCircuitShapes : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::uint64_t t() const { return GetParam(); }
  std::int64_t ring_hi() const { return static_cast<std::int64_t>(t() / 2); }
  std::int64_t ring_lo() const {
    return ring_hi() + 1 - static_cast<std::int64_t>(t());
  }
  // The value the circuit sees once v is shared mod t.
  std::int64_t centered(std::int64_t v) const {
    return fp_from_ring(fp_to_ring(v, t()), t());
  }

  // Runs `c` on fresh additive shares of each block of values, laid out as
  // [garbler shares of every block | evaluator shares of every block | Rc],
  // and returns the unmasked, centered outputs.
  std::vector<std::int64_t> run(
      const Circuit& c, const std::vector<std::vector<std::int64_t>>& blocks) {
    const std::size_t w = share_width(t());
    std::vector<bool> g, e, r;
    auto put = [&](std::vector<bool>& bits, std::uint64_t v) {
      const auto vb = value_to_bits(v, w);
      bits.insert(bits.end(), vb.begin(), vb.end());
    };
    for (const auto& block : blocks) {
      for (const auto v : block) {
        const std::uint64_t share = rng_.uniform(t());
        put(g, share);
        put(e, (fp_to_ring(v, t()) + t() - share) % t());
      }
    }
    std::vector<std::uint64_t> rcs(c.outputs.size() / w);
    for (auto& rc : rcs) {
      rc = rng_.uniform(t());
      put(r, rc);
    }
    g.insert(g.end(), e.begin(), e.end());
    g.insert(g.end(), r.begin(), r.end());
    const auto out = eval_circuit(c, g);
    std::vector<std::int64_t> got(rcs.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::vector<bool> bits(
          out.begin() + static_cast<long>(i * w),
          out.begin() + static_cast<long>((i + 1) * w));
      got[i] = fp_from_ring((bits_to_value(bits) + rcs[i]) % t(), t());
    }
    return got;
  }

  Rng rng_{2026};
};

TEST_P(WidestCircuitShapes, ActivationsMatchReferenceAtEdges) {
  const FixedPointFormat fmt;
  std::vector<std::int64_t> vals = {0, 1, -1, ring_lo(), ring_hi(),
                                    ring_lo() + 1, ring_hi() - 1};
  // One past each clamp threshold, before and after the 8-bit truncation:
  // saturation at 16383/-16384, the GELU table's [-1024, 1023] and its
  // GELU(x) = x cut-over above 1024.
  for (const std::int64_t edge : {16383, 16384, -16384, -16385, 1023, 1024,
                                  1025, -1024, -1025}) {
    vals.push_back(edge);
    vals.push_back(edge * 256);
    vals.push_back(edge * 256 + 255);
    vals.push_back(edge * 256 - 1);
  }
  for (const Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kGelu}) {
    for (const std::size_t shift : {std::size_t{0}, std::size_t{8}}) {
      ActivationCircuitSpec spec;
      spec.t = t();
      spec.count = vals.size();
      spec.frac_shift = shift;
      spec.act = act;
      const auto got = run(make_activation_circuit(spec), {vals});
      for (std::size_t i = 0; i < vals.size(); ++i) {
        EXPECT_EQ(got[i],
                  activation_reference(centered(vals[i]), shift, act, fmt))
            << "act " << static_cast<int>(act) << " shift " << shift
            << " value " << vals[i];
      }
    }
  }
}

TEST_P(WidestCircuitShapes, SoftmaxRowsMatchReferenceAtEdges) {
  const FixedPointFormat fmt;
  for (const std::size_t n : {std::size_t{30}, std::size_t{128}}) {
    for (const std::size_t shift : {std::size_t{8}, std::size_t{24}}) {
      const std::int64_t unit = std::int64_t{1} << shift;
      std::vector<std::vector<std::int64_t>> rows;
      rows.emplace_back(n, 16383 * unit);  // constant row
      rows.emplace_back(n, ring_lo());
      std::vector<std::int64_t> half(n, -16384 * unit);
      std::fill(half.begin(), half.begin() + static_cast<long>(n / 2),
                16383 * unit);
      rows.push_back(half);
      // One max, the rest one past the exp table's -8.0 (raw -2048) below
      // it, or at it, or saturating.
      std::vector<std::int64_t> edge(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t below[] = {-2048, -2049, -2047, -1, -16384, 16384};
        edge[i] = (i == 0 ? 0 : below[i % 6]) * unit;
      }
      rows.push_back(edge);
      std::vector<std::int64_t> extremes(n);
      for (std::size_t i = 0; i < n; ++i) {
        extremes[i] = i % 2 ? ring_hi() : ring_lo();
      }
      rows.push_back(extremes);
      std::vector<std::int64_t> random(n);
      for (auto& v : random) v = rng_.uniform_int(ring_lo(), ring_hi());
      rows.push_back(random);

      SoftmaxCircuitSpec spec;
      spec.t = t();
      spec.count = n;
      spec.frac_shift = shift;
      const Circuit c = make_softmax_circuit(spec);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::int64_t> seen(n);
        for (std::size_t i = 0; i < n; ++i) seen[i] = centered(rows[r][i]);
        EXPECT_EQ(run(c, {rows[r]}), fixed_softmax_reference(seen, shift, fmt))
            << "n " << n << " shift " << shift << " row " << r;
      }
    }
  }
}

TEST_P(WidestCircuitShapes, LayerNormRowsMatchReferenceAtEdges) {
  const FixedPointFormat fmt;
  for (const std::size_t d : {std::size_t{768}, std::size_t{1024}}) {
    LayerNormCircuitSpec spec;
    spec.t = t();
    spec.d = d;
    spec.frac_shift = 8;
    for (std::size_t i = 0; i < d; ++i) {
      spec.gamma.push_back(i % 4 == 0 ? fp_encode(1.0)
                                      : rng_.uniform_int(-2048, 2048));
      spec.beta.push_back(rng_.uniform_int(-4096, 4096));
    }
    const Circuit c = make_layernorm_circuit(spec);

    // (acc, residual) rows.  Alternating +16383/-16384 residuals give the
    // largest variance sum, about d * 2^20.
    std::vector<std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>>
        rows;
    const std::vector<std::int64_t> zero(d, 0);
    std::vector<std::int64_t> alternating(d), half(d, -16384);
    std::vector<std::int64_t> one_up(d, -16384);
    for (std::size_t i = 0; i < d; ++i) alternating[i] = i % 2 ? -16384 : 16383;
    std::fill(half.begin(), half.begin() + static_cast<long>(d / 2), 16383);
    one_up[d / 3] = 16383;
    rows.emplace_back(zero, alternating);
    rows.emplace_back(zero, half);
    rows.emplace_back(zero, one_up);
    rows.emplace_back(zero, std::vector<std::int64_t>(d, 16383));   // var 0
    rows.emplace_back(std::vector<std::int64_t>(d, -16384 * 256), zero);
    std::vector<std::int64_t> acc_edge(d), res_extreme(d);
    for (std::size_t i = 0; i < d; ++i) {
      const std::int64_t past[] = {16384 * 256, 16384 * 256 - 1, -16385 * 256,
                                   -16384 * 256, ring_hi(), ring_lo()};
      acc_edge[i] = past[i % 6];
      res_extreme[i] = i % 3 == 0 ? ring_hi() : (i % 3 == 1 ? ring_lo() : 0);
    }
    rows.emplace_back(acc_edge, alternating);
    rows.emplace_back(acc_edge, res_extreme);

    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& [acc, res] = rows[r];
      std::vector<std::int64_t> s(d);
      for (std::size_t i = 0; i < d; ++i) {
        s[i] = fp_saturate(fp_saturate(centered(acc[i]) >> 8, fmt) +
                               centered(res[i]),
                           fmt);
      }
      EXPECT_EQ(run(c, {acc, res}),
                fixed_layernorm_row(s, spec.gamma, spec.beta, fmt))
          << "d " << d << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, WidestCircuitShapes,
    ::testing::Values(1032193ULL,  // ~2^20, as kTest2048 and kLight4096
                      make_params(HeProfile::kProto2048).t,
                      make_params(HeProfile::kProd8192).t));

}  // namespace
}  // namespace primer
