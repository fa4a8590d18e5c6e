// Tests for encrypted-matmul packing (paper Fig. 6): correctness of both
// strategies against the plain ring product, the rotation-count model
// showing the tokens-first advantage (factor ~n fewer rotations), and the
// count model against the live execution on every shape the engine runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>

#include "common/fixed_point.h"
#include "nn/config.h"
#include "proto/packing.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

// One HE setup per profile, built on first use and shared by every test.
// Its members refer to each other, so it is never copied.
struct HeSetup {
  explicit HeSetup(HeProfile profile)
      : ctx(make_params(profile)), rng(99), keygen(ctx, rng), encoder(ctx),
        enc(ctx, keygen.secret_key(), rng), dec(ctx, keygen.secret_key()),
        eval(ctx) {}
  HeSetup(const HeSetup&) = delete;
  HeSetup& operator=(const HeSetup&) = delete;
  HeContext ctx;
  Rng rng;
  KeyGenerator keygen;
  BatchEncoder encoder;
  Encryptor enc;
  Decryptor dec;
  Evaluator eval;
};

class PackingTest : public ::testing::Test {
 protected:
  static void TearDownTestSuite() { setups_.clear(); }

  // Setup `copy` of `profile`: two independent contexts per profile.
  static HeSetup& he(HeProfile profile, int copy = 0) {
    auto& s = setups_[{profile, copy}];
    if (s == nullptr) s = std::make_unique<HeSetup>(profile);
    return *s;
  }

  // Encodes W under one context and multiplies it, as a model's set is
  // used, under another context of the same profile with only the Galois
  // keys of this shape.  Two inputs go through the one encoding; each
  // result must equal the ring product.  `stats` gets the first product's
  // counts.
  void check_matmul(PackingStrategy strategy, std::size_t n, std::size_t d_in,
                    std::size_t d_out, PackedMatmulStats* stats = nullptr,
                    HeProfile profile = HeProfile::kProto2048) {
    HeSetup& s = he(profile);
    HeSetup& owner = he(profile, 1);
    const std::uint64_t t = s.ctx.t();
    const ShareRing ring(t);
    // Fixed-point W with no zero entry: the live loop skips all-zero
    // masks, which the count model does not.
    MatI w = random_fp_matrix(s.rng, d_in, d_out, -1.0, 1.0);
    for (auto& v : w.data()) {
      if (v == 0) v = 1;
    }
    const EncodedMatrix w_enc =
        PackedMatmul(owner.ctx, owner.encoder, owner.eval, strategy)
            .encode(w, n);

    PackedMatmul mm(s.ctx, s.encoder, s.eval, strategy);
    const GaloisKeys gk =
        s.keygen.make_galois_keys(mm.rotation_steps(n, d_in, d_out));
    // Expected: X * W over the ring (weights lifted the same way).
    MatI w_ring(d_in, d_out);
    for (std::size_t j = 0; j < d_in; ++j) {
      for (std::size_t o = 0; o < d_out; ++o) {
        w_ring(j, o) = static_cast<std::int64_t>(fp_to_ring(w(j, o), t));
      }
    }
    for (int input = 0; input < 2; ++input) {
      // Random ring-valued input (models a masked share).
      const MatI x = ring.random(s.rng, n, d_in);
      const auto packed = mm.encrypt_input(x, s.enc);
      const auto result =
          mm.multiply(packed, w_enc, gk, input == 0 ? stats : nullptr);
      const MatI got = mm.decrypt_result(result, s.dec, n, d_out);
      const MatI expect = ring.mul(ring.reduce(x), w_ring);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t o = 0; o < d_out; ++o) {
          ASSERT_EQ(got(i, o), expect(i, o))
              << "input " << input << ", entry " << i << "," << o
              << " strategy " << static_cast<int>(strategy);
        }
      }
    }
  }

  static std::map<std::pair<HeProfile, int>, std::unique_ptr<HeSetup>>
      setups_;
};

std::map<std::pair<HeProfile, int>, std::unique_ptr<HeSetup>>
    PackingTest::setups_;

TEST_F(PackingTest, TokensFirstSmall) {
  check_matmul(PackingStrategy::kTokensFirst, 4, 16, 8);
}

TEST_F(PackingTest, TokensFirstMicroEmbedShape) {
  // micro model embedding: 8 tokens, vocab 64 -> d 32.
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 32);
}

TEST_F(PackingTest, TokensFirstMultiCiphertext) {
  // d_in larger than one ciphertext's feature capacity (fpc = 1024/8 = 128).
  check_matmul(PackingStrategy::kTokensFirst, 8, 200, 4);
}

TEST_F(PackingTest, TokensFirstMultiOutputCt) {
  // d_out larger than fpc = 1024/256 = 4 blocks -> several output cts.
  check_matmul(PackingStrategy::kTokensFirst, 256, 8, 6);
}

TEST_F(PackingTest, FeatureBasedSmall) {
  check_matmul(PackingStrategy::kFeatureBased, 4, 16, 8);
}

TEST_F(PackingTest, FeatureBasedRectangular) {
  check_matmul(PackingStrategy::kFeatureBased, 8, 32, 5);
}

TEST_F(PackingTest, TokensFirstWindowBoundaries) {
  // At 8 tokens over 1024 slots, fpc = 128 blocks.  A product with
  // d_in + d_out - 1 < fpc runs only the alignments [-(d_out-1), d_in-1]
  // when that needs fewer key switches than the full row; each shape below
  // must still equal the ring product on its own keys.
  HeSetup& s = he(HeProfile::kProto2048);
  PackedMatmul mm(s.ctx, s.encoder, s.eval, PackingStrategy::kTokensFirst);
  const auto has_step = [](const std::vector<int>& steps, int step) {
    return std::find(steps.begin(), steps.end(), step) != steps.end();
  };
  // 64 + 64 - 1 = fpc - 1 alignments: the window's babies (-63..-52) hold
  // no zero alignment, so it would pay 12 + 10 key switches against the
  // full row's 11 + 10.  The product takes the full row.
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 64);
  EXPECT_EQ(mm.rotation_steps(8, 64, 64), mm.rotation_steps(8));
  // 100 + 20 - 1 = 119 alignments tie the full row at 21: the full row.
  EXPECT_EQ(mm.rotation_steps(8, 100, 20), mm.rotation_steps(8));
  // 64 + 32 - 1 = 95 alignments pay 10 + 9: the window.
  EXPECT_TRUE(has_step(mm.rotation_steps(8, 64, 32), -31 * 8));
  // Narrowest full-row shape: 64 + 65 - 1 = fpc, the one-argument set.
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 65);
  EXPECT_EQ(mm.rotation_steps(8, 64, 65), mm.rotation_steps(8));
  // d_out = 1: the window starts at 0 and needs no negative step.
  check_matmul(PackingStrategy::kTokensFirst, 8, 16, 1);
  for (const int step : mm.rotation_steps(8, 16, 1)) EXPECT_GT(step, 0);
  // d_in = 1: every alignment is negative but the last.
  check_matmul(PackingStrategy::kTokensFirst, 8, 1, 16);
  EXPECT_TRUE(has_step(mm.rotation_steps(8, 1, 16), -15 * 8));
  // One token, the classifier's shape: fpc = 1024, window [-2, 15].
  check_matmul(PackingStrategy::kTokensFirst, 1, 16, 3);
  EXPECT_TRUE(has_step(mm.rotation_steps(1, 16, 3), -2));
}

TEST_F(PackingTest, RotationCountAdvantage) {
  PackedMatmulStats tf, fb;
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 16, &tf);
  check_matmul(PackingStrategy::kFeatureBased, 8, 64, 16, &fb);
  // The paper's Fig. 6 sequential schedule: tokens-first needs M/n - 1
  // alignments, feature-based M - 1 — a factor-n gap.
  EXPECT_EQ(fb.naive_rotations, 1023u);  // M - 1
  EXPECT_EQ(tf.naive_rotations, 127u);   // M/n - 1
  EXPECT_LT(tf.naive_rotations, fb.naive_rotations / 4);
  // The live BSGS execution pays ~n1+n2 key-switches per rotation set —
  // strictly fewer than the sequential walk for both strategies, and
  // tokens-first still wins: it walks only the 64 + 16 - 1 = 79
  // alignments that can move data.
  EXPECT_EQ(fb.rotations, 62u);  // n1,n2 = 32,32: 31 baby + 31 giant
  EXPECT_EQ(tf.rotations, 17u);  // n1,n2 = 9,9: 9 baby (-15..-7) + 8 giant
  EXPECT_LT(fb.rotations, fb.naive_rotations / 8);
  EXPECT_LT(tf.rotations, tf.naive_rotations / 4);
  EXPECT_LT(tf.rotations, fb.rotations / 2);
}

TEST_F(PackingTest, CountModelMatchesPaperRatio) {
  // BERT-base embedding shape: n = 30 tokens, d_oh = 30522, d_emb = 768,
  // SEAL-like M = 4096 slots.
  const auto tf = packed_matmul_counts(PackingStrategy::kTokensFirst, 30,
                                       30522, 768, 4096);
  const auto fb = packed_matmul_counts(PackingStrategy::kFeatureBased, 30,
                                       30522, 768, 4096);
  // Paper: tokens-first reduces rotations by roughly a factor of n (the
  // claim is about the sequential alignment schedule both schemes share).
  const double ratio = static_cast<double>(fb.naive_rotations) /
                       static_cast<double>(tf.naive_rotations);
  EXPECT_GT(ratio, 15.0);
  EXPECT_LT(ratio, 40.0);
  // BSGS compresses both schedules; the advantage persists at ~sqrt scale.
  EXPECT_LT(fb.rotations, fb.naive_rotations);
  EXPECT_LT(tf.rotations, tf.naive_rotations);
  EXPECT_GT(static_cast<double>(fb.rotations) /
                static_cast<double>(tf.rotations),
            3.0);
}

TEST_F(PackingTest, CountModelCiphertextCounts) {
  const auto s = packed_matmul_counts(PackingStrategy::kTokensFirst, 8, 64, 32,
                                      1024);
  EXPECT_EQ(s.input_ciphertexts, 1u);   // 64 features, fpc = 128
  EXPECT_EQ(s.output_ciphertexts, 1u);  // 8 * 32 = 256 <= 1024
  const auto s2 = packed_matmul_counts(PackingStrategy::kFeatureBased, 8, 64,
                                       32, 1024);
  EXPECT_EQ(s2.input_ciphertexts, 1u);  // 8 * 64 = 512 <= 1024
  EXPECT_EQ(s2.naive_rotations, 1023u);
  EXPECT_EQ(s2.rotations, 62u);  // BSGS: (32-1) baby + (32-1) giant
}

TEST_F(PackingTest, BsgsKeySwitchCountIsBabyPlusGiant) {
  // The acceptance shape: tokens-first 8 x 64 -> 32 over 1024 slots packs
  // into one input and one output ciphertext with fpc = 128 blocks, and
  // only the 64 + 32 - 1 = 95 alignments in [-31, 63] can move data.  BSGS
  // splits them into n1 = 10 babies (-31..-22, none of them the input
  // itself) under n2 = 10 giant blocks, so the whole matmul costs n1
  // hoisted baby + (n2 - 1) giant = 19 key-switches — not the 94 of the
  // sequential walk over the window.
  const auto [n1, n2] = bsgs_split(95);
  EXPECT_EQ(n1, 10u);
  EXPECT_EQ(n2, 10u);
  const auto s = packed_matmul_counts(PackingStrategy::kTokensFirst, 8, 64, 32,
                                      1024);
  EXPECT_EQ(s.rotations, n1 + n2 - 1);
  EXPECT_EQ(s.baby_rotations, n1);
  EXPECT_EQ(s.giant_rotations, n2 - 1);
  EXPECT_EQ(s.plain_mults, 95u);  // one per alignment of the window
  // The live execution pays exactly the modeled schedule.
  PackedMatmulStats live;
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 32, &live);
  EXPECT_EQ(live.rotations, s.rotations);
  EXPECT_EQ(live.baby_rotations, s.baby_rotations);
  EXPECT_EQ(live.giant_rotations, s.giant_rotations);
  EXPECT_EQ(live.plain_mults, s.plain_mults);
}

// Every tokens-first product the engine runs for `c` under Primer-FP, -FPC
// and -F, as (tokens, d_in, d_out).
std::vector<std::array<std::size_t, 3>> engine_products(const BertConfig& c) {
  const std::size_t n = c.tokens, d = c.d_model, dh = c.head_dim();
  return {
      {n, c.vocab, d}, {n, d, d}, {n, d, c.d_ff}, {n, c.d_ff, d},  // HGS
      {1, d, c.num_classes},                   // classifier, one token
      {n, dh, n}, {n, n, dh}, {dh, n, n},      // FHGS Q*K^T and P*V terms
      {n, c.vocab, c.vocab}, {n, c.vocab, n},  // CHGS over Enc(R0)
      {n, d, n},                               // CHGS of deeper blocks
  };
}

TEST_F(PackingTest, CountModelMatchesLiveOnEngineShapes) {
  // The cost model prices each product with packed_matmul_counts; the
  // live execution must pay exactly that on every tokens-first shape of
  // BERT-nano and BERT-micro at both protocol profiles, and on the
  // multi-ciphertext shapes.
  struct Case {
    HeProfile profile;
    std::array<std::size_t, 3> shape;  // tokens, d_in, d_out
  };
  std::vector<Case> cases;
  for (const HeProfile p : {HeProfile::kProto2048, HeProfile::kProd8192}) {
    for (const BertConfig& cfg : {bert_nano(), bert_micro()}) {
      for (const auto& shape : engine_products(cfg)) cases.push_back({p, shape});
    }
  }
  cases.push_back({HeProfile::kProto2048, {8, 200, 4}});  // 2 input cts
  cases.push_back({HeProfile::kProto2048, {256, 8, 6}});  // 2 output cts
  for (const Case& c : cases) {
    const auto [n, d_in, d_out] = c.shape;
    SCOPED_TRACE(std::to_string(n) + " tokens, " + std::to_string(d_in) +
                 " x " + std::to_string(d_out) + ", row " +
                 std::to_string(he(c.profile).encoder.row_size()));
    PackedMatmulStats live;
    check_matmul(PackingStrategy::kTokensFirst, n, d_in, d_out, &live,
                 c.profile);
    const std::size_t row = he(c.profile).encoder.row_size();
    const auto model = packed_matmul_counts(PackingStrategy::kTokensFirst, n,
                                            d_in, d_out, row);
    EXPECT_EQ(live.rotations, model.rotations);
    EXPECT_EQ(live.baby_rotations, model.baby_rotations);
    EXPECT_EQ(live.giant_rotations, model.giant_rotations);
    EXPECT_EQ(live.plain_mults, model.plain_mults);
    // The chosen schedule never costs more key switches than the full row:
    // n1 - 1 nonzero babies per input and n2 - 1 giants per chain.
    const auto [f1, f2] = bsgs_split(row / n);
    EXPECT_LE(model.rotations,
              model.input_ciphertexts *
                  (f1 - 1 + model.output_ciphertexts * (f2 - 1)));
  }
}

TEST_F(PackingTest, MatrixEncodedForAnotherProfileOrPackingThrows) {
  HeSetup& s = he(HeProfile::kProto2048);
  HeSetup& other = he(HeProfile::kTest2048);  // same degree, other moduli
  const MatI w = random_fp_matrix(s.rng, 16, 8, -1.0, 1.0);
  PackedMatmul mm(s.ctx, s.encoder, s.eval, PackingStrategy::kTokensFirst);
  const GaloisKeys gk = s.keygen.make_galois_keys(mm.rotation_steps(4, 16, 8));
  const auto packed =
      mm.encrypt_input(ShareRing(s.ctx.t()).random(s.rng, 4, 16), s.enc);
  EXPECT_NO_THROW(mm.multiply(packed, mm.encode(w, 4), gk, nullptr));
  const EncodedMatrix foreign =
      PackedMatmul(other.ctx, other.encoder, other.eval,
                   PackingStrategy::kTokensFirst)
          .encode(w, 4);
  EXPECT_THROW(mm.multiply(packed, foreign, gk, nullptr),
               std::invalid_argument);
  const EncodedMatrix feature_based =
      PackedMatmul(s.ctx, s.encoder, s.eval, PackingStrategy::kFeatureBased)
          .encode(w, 4);
  EXPECT_THROW(mm.multiply(packed, feature_based, gk, nullptr),
               std::invalid_argument);
}

TEST_F(PackingTest, NoiseBudgetSurvives) {
  // Direct check that the Horner ordering leaves decryptable noise.
  HeSetup& s = he(HeProfile::kProto2048);
  const std::uint64_t t = s.ctx.t();
  const ShareRing ring(t);
  const MatI x = ring.random(s.rng, 8, 64);
  const MatI w = random_fp_matrix(s.rng, 64, 8, -1.0, 1.0);
  PackedMatmul mm(s.ctx, s.encoder, s.eval, PackingStrategy::kTokensFirst);
  const GaloisKeys gk = s.keygen.make_galois_keys(mm.rotation_steps(8, 64, 8));
  const auto packed = mm.encrypt_input(x, s.enc);
  const auto result = mm.multiply(packed, mm.encode(w, 8), gk, nullptr);
  for (const auto& ct : result) {
    EXPECT_GT(s.dec.noise_budget(ct), 10.0);
  }
}

}  // namespace
}  // namespace primer
