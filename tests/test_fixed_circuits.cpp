// Tests for the fixed-point share circuits: reconstruction/centering,
// truncation, ReLU/GELU/identity activation circuits, PWL approximation
// quality, and the exact-softmax circuit — each validated against the int64
// reference semantics and (for small cases) under real garbling — plus the
// build-time checks of the value intervals that size every bus.
#include <gtest/gtest.h>

#include <cmath>

#include "common/fixed_point.h"
#include "gc/fixed_circuits.h"
#include "gc/garble.h"
#include "gc/protocol.h"

namespace primer {
namespace {

constexpr std::uint64_t kT = 1032193;  // prime = 1 mod 4096, ~2^20
const std::size_t kW = share_width(kT);

std::vector<bool> share_bits(std::uint64_t v) { return value_to_bits(v, kW); }

// Splits a signed value into two additive shares mod t.
std::pair<std::uint64_t, std::uint64_t> make_shares(std::int64_t v, Rng& rng) {
  const std::uint64_t ring = fp_to_ring(v, kT);
  const std::uint64_t r = rng.uniform(kT);
  return {r, (ring + kT - r) % kT};
}

TEST(ShareWidth, Computations) {
  EXPECT_EQ(share_width(2), 1u);
  EXPECT_EQ(share_width(3), 2u);
  EXPECT_EQ(share_width(65537), 17u);
  EXPECT_EQ(share_width(kT), 20u);
}

TEST(FixedCircuits, ReconstructCenteredMatchesRingDecode) {
  Rng rng(100);
  CircuitBuilder b;
  const Bus sa = b.add_input_bus(kW);
  const Bus sb = b.add_input_bus(kW);
  const SignedBus v = reconstruct_centered(b, sa, sb, kT);
  b.set_outputs(v.bits);
  const Circuit c = b.build();

  for (std::int64_t val : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                           std::int64_t{5000}, std::int64_t{-5000},
                           std::int64_t{16383}, std::int64_t{-16384}}) {
    const auto [s1, s2] = make_shares(val, rng);
    auto in = share_bits(s1);
    const auto in2 = share_bits(s2);
    in.insert(in.end(), in2.begin(), in2.end());
    const auto out = eval_circuit(c, in);
    // Interpret as signed two's complement.
    std::int64_t got = static_cast<std::int64_t>(bits_to_value(out));
    if (out.back()) got -= std::int64_t{1} << out.size();
    EXPECT_EQ(got, val) << "value " << val;
  }
}

TEST(FixedCircuits, EmbedInvertsCenter) {
  Rng rng(101);
  CircuitBuilder b;
  const Bus sa = b.add_input_bus(kW);
  const Bus sb = b.add_input_bus(kW);
  const SignedBus v = reconstruct_centered(b, sa, sb, kT);
  b.set_outputs(embed_mod_t(b, v, kT));
  const Circuit c = b.build();

  for (int iter = 0; iter < 50; ++iter) {
    const std::int64_t val = rng.uniform_int(-100000, 100000);
    const auto [s1, s2] = make_shares(val, rng);
    auto in = share_bits(s1);
    const auto in2 = share_bits(s2);
    in.insert(in.end(), in2.begin(), in2.end());
    EXPECT_EQ(bits_to_value(eval_circuit(c, in)), fp_to_ring(val, kT));
  }
}

// An interval that is empty, that its bus cannot hold or that leaves int64
// is an error while the circuit is built, never a wrap inside it.
TEST(FixedCircuits, BadIntervalsFailAtBuild) {
  CircuitBuilder b;
  const Bus in = b.add_input_bus(kW + 2);
  EXPECT_THROW(SignedBus(in, 5, 4), std::logic_error);
  EXPECT_THROW(SignedBus(Bus(in.begin(), in.begin() + 3), -5, 3),
               std::logic_error);
  // A (kW + 2)-bit value may exceed t: no residue mod t to embed it as.
  EXPECT_THROW(embed_mod_t(b, SignedBus(in), kT), std::logic_error);

  LayerNormCircuitSpec spec;
  spec.t = kT;
  spec.d = 4;
  spec.frac_shift = 8;
  spec.gamma.assign(4, std::int64_t{1} << 62);  // gamma * 16383 leaves int64
  spec.beta.assign(4, 0);
  EXPECT_THROW(make_layernorm_circuit(spec), std::logic_error);
}

TEST(FixedCircuits, PwlExpAccuracy) {
  const PwlSpec spec{-8.0, 0.0, 5, [](double x) { return std::exp(x); }};
  const FixedPointFormat fmt;
  // PWL error over the range must stay within a few fixed-point ulps.
  for (double x = -8.0; x <= 0.0; x += 0.01) {
    const std::int64_t raw = fp_encode(x, fmt);
    const double approx = fp_decode(pwl_reference(raw, spec, fmt), fmt);
    EXPECT_NEAR(approx, std::exp(x), 0.02) << "x = " << x;
  }
}

TEST(FixedCircuits, PwlGeluAccuracy) {
  const PwlSpec spec{-4.0, 4.0, 5, &gelu_double};
  const FixedPointFormat fmt;
  for (double x = -4.0; x <= 4.0; x += 0.01) {
    const std::int64_t raw = fp_encode(x, fmt);
    const double approx = fp_decode(pwl_reference(raw, spec, fmt), fmt);
    EXPECT_NEAR(approx, gelu_double(x), 0.02) << "x = " << x;
  }
}

TEST(FixedCircuits, PwlCircuitMatchesReference) {
  const PwlSpec spec{-8.0, 0.0, 5, [](double x) { return std::exp(x); }};
  const FixedPointFormat fmt;
  const std::size_t sw = 24;
  CircuitBuilder b;
  const Bus in = b.add_input_bus(sw);
  b.set_outputs(pwl_apply(b, SignedBus{in}, spec, fmt).bits);
  const Circuit c = b.build();
  Rng rng(55);
  for (int iter = 0; iter < 100; ++iter) {
    const std::int64_t x = rng.uniform_int(-3000, 500);
    const auto out = eval_circuit(
        c, value_to_bits(static_cast<std::uint64_t>(x) & ((1ULL << sw) - 1),
                         sw));
    std::int64_t got = static_cast<std::int64_t>(bits_to_value(out));
    if (out.back()) got -= std::int64_t{1} << sw;
    EXPECT_EQ(got, pwl_reference(x, spec, fmt)) << "x = " << x;
  }
}

class ActivationCircuitTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationCircuitTest, CircuitMatchesReference) {
  const Activation act = GetParam();
  ActivationCircuitSpec spec;
  spec.t = kT;
  spec.count = 3;
  spec.frac_shift = 8;  // post-matmul truncation
  spec.act = act;
  const Circuit c = make_activation_circuit(spec);

  Rng rng(200 + static_cast<int>(act));
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::int64_t> vals(spec.count);
    std::vector<bool> in_g, in_e, in_r;
    std::vector<std::uint64_t> rcs(spec.count);
    for (std::size_t i = 0; i < spec.count; ++i) {
      // Raw product-domain values (2*frac fractional bits).
      vals[i] = rng.uniform_int(-500000, 500000);
      const auto [s1, s2] = make_shares(vals[i], rng);
      rcs[i] = rng.uniform(kT);
      const auto g = share_bits(s1), e = share_bits(s2), r = share_bits(rcs[i]);
      in_g.insert(in_g.end(), g.begin(), g.end());
      in_e.insert(in_e.end(), e.begin(), e.end());
      in_r.insert(in_r.end(), r.begin(), r.end());
    }
    std::vector<bool> inputs = in_g;
    inputs.insert(inputs.end(), in_e.begin(), in_e.end());
    inputs.insert(inputs.end(), in_r.begin(), in_r.end());
    const auto out = eval_circuit(c, inputs);
    for (std::size_t i = 0; i < spec.count; ++i) {
      const std::vector<bool> bits(out.begin() + static_cast<long>(i * kW),
                                   out.begin() + static_cast<long>((i + 1) * kW));
      const std::uint64_t masked = bits_to_value(bits);
      // Unmask: result + rc mod t, then center.
      const std::int64_t got = fp_from_ring((masked + rcs[i]) % kT, kT);
      const std::int64_t expect =
          activation_reference(vals[i], spec.frac_shift, act, spec.fmt);
      EXPECT_EQ(got, expect) << "value " << vals[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Acts, ActivationCircuitTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kGelu));

TEST(SoftmaxCircuit, MatchesReferenceSemantics) {
  SoftmaxCircuitSpec spec;
  spec.t = kT;
  spec.count = 4;
  spec.frac_shift = 8;
  const Circuit c = make_softmax_circuit(spec);

  Rng rng(300);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<std::int64_t> vals(spec.count);
    std::vector<bool> in_g, in_e, in_r;
    std::vector<std::uint64_t> rcs(spec.count);
    for (std::size_t i = 0; i < spec.count; ++i) {
      vals[i] = rng.uniform_int(-300000, 300000);
      const auto [s1, s2] = make_shares(vals[i], rng);
      rcs[i] = rng.uniform(kT);
      const auto g = share_bits(s1), e = share_bits(s2), r = share_bits(rcs[i]);
      in_g.insert(in_g.end(), g.begin(), g.end());
      in_e.insert(in_e.end(), e.begin(), e.end());
      in_r.insert(in_r.end(), r.begin(), r.end());
    }
    std::vector<bool> inputs = in_g;
    inputs.insert(inputs.end(), in_e.begin(), in_e.end());
    inputs.insert(inputs.end(), in_r.begin(), in_r.end());
    const auto out = eval_circuit(c, inputs);
    const auto expect = fixed_softmax_reference(vals, spec.frac_shift, spec.fmt);
    for (std::size_t i = 0; i < spec.count; ++i) {
      const std::vector<bool> bits(out.begin() + static_cast<long>(i * kW),
                                   out.begin() + static_cast<long>((i + 1) * kW));
      const std::int64_t got =
          fp_from_ring((bits_to_value(bits) + rcs[i]) % kT, kT);
      EXPECT_EQ(got, expect[i]) << "row slot " << i;
    }
  }
}

TEST(SoftmaxReference, SumsToApproximatelyOne) {
  Rng rng(400);
  const FixedPointFormat fmt;
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::int64_t> vals(8);
    for (auto& v : vals) v = rng.uniform_int(-500000, 500000);
    const auto sm = fixed_softmax_reference(vals, 8, fmt);
    double total = 0;
    for (const auto s : sm) {
      EXPECT_GE(s, 0);
      total += fp_decode(s, fmt);
    }
    EXPECT_NEAR(total, 1.0, 0.1);
  }
}

TEST(SoftmaxReference, MatchesFloatSoftmaxShape) {
  // The exact-GC softmax should track float softmax closely (this is the
  // accuracy property Primer claims over THE-X's polynomial approximation).
  const FixedPointFormat fmt;
  const std::vector<double> xs = {1.0, 2.0, 0.5, -1.0};
  std::vector<std::int64_t> raw(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    raw[i] = fp_encode(xs[i], fmt) << fmt.frac_bits;  // product domain
  }
  const auto sm = fixed_softmax_reference(raw, 8, fmt);
  double denom = 0;
  for (const double x : xs) denom += std::exp(x - 2.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expect = std::exp(xs[i] - 2.0) / denom;
    EXPECT_NEAR(fp_decode(sm[i], fmt), expect, 0.03) << "slot " << i;
  }
}

TEST(SoftmaxCircuit, GarbledExecutionMatchesPlain) {
  SoftmaxCircuitSpec spec;
  spec.t = 65537;  // small prime keeps the garbled run fast
  spec.count = 3;
  spec.frac_shift = 8;
  const Circuit c = make_softmax_circuit(spec);
  Rng rng(500);
  std::vector<bool> inputs(static_cast<std::size_t>(c.num_inputs));
  for (auto&& bit : inputs) bit = rng.next() & 1;
  EXPECT_EQ(garbled_eval(c, inputs, rng), eval_circuit(c, inputs));
}

TEST(ActivationCircuit, GarbledExecutionMatchesPlain) {
  ActivationCircuitSpec spec;
  spec.t = 65537;
  spec.count = 2;
  spec.frac_shift = 8;
  spec.act = Activation::kGelu;
  const Circuit c = make_activation_circuit(spec);
  Rng rng(600);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<bool> inputs(static_cast<std::size_t>(c.num_inputs));
    for (auto&& bit : inputs) bit = rng.next() & 1;
    EXPECT_EQ(garbled_eval(c, inputs, rng), eval_circuit(c, inputs));
  }
}

}  // namespace
}  // namespace primer
