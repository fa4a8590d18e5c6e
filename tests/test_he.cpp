// Tests for the HE substrate: parameter generation, CRT composition,
// encrypt/decrypt round-trips, homomorphic add / plain-mult / ct-mult /
// rotations, batching semantics, noise budget behaviour, serialization.
//
// All tests run on the kTest2048 profile (fast, NOT secure) — the secure
// profiles use identical code paths with bigger tables.
#include <gtest/gtest.h>

#include <memory>

#include "common/fixed_point.h"
#include "he/encoder.h"
#include "he/he.h"
#include "he/u256.h"

namespace primer {
namespace {

class HeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new HeContext(make_params(HeProfile::kTest2048));
    rng_ = new Rng(2024);
    keygen_ = new KeyGenerator(*ctx_, *rng_);
    rk_ = new RelinKey(keygen_->make_relin_key());
    gk_ = new GaloisKeys(keygen_->make_galois_keys({1, 2, -1, 5}));
    encoder_ = new BatchEncoder(*ctx_);
    enc_sym_ = new Encryptor(*ctx_, keygen_->secret_key(), *rng_);
    dec_ = new Decryptor(*ctx_, keygen_->secret_key());
    eval_ = new Evaluator(*ctx_);
  }

  static void TearDownTestSuite() {
    delete eval_; delete dec_; delete enc_sym_;
    delete encoder_; delete gk_; delete rk_; delete keygen_;
    delete rng_; delete ctx_;
    ctx_ = nullptr;
  }

  static std::vector<u64> random_slots(u64 bound, std::size_t count) {
    std::vector<u64> v(count);
    for (auto& x : v) x = rng_->uniform(bound);
    return v;
  }

  static HeContext* ctx_;
  static Rng* rng_;
  static KeyGenerator* keygen_;
  static RelinKey* rk_;
  static GaloisKeys* gk_;
  static BatchEncoder* encoder_;
  static Encryptor* enc_sym_;
  static Decryptor* dec_;
  static Evaluator* eval_;
};

HeContext* HeTest::ctx_ = nullptr;
Rng* HeTest::rng_ = nullptr;
KeyGenerator* HeTest::keygen_ = nullptr;
RelinKey* HeTest::rk_ = nullptr;
GaloisKeys* HeTest::gk_ = nullptr;
BatchEncoder* HeTest::encoder_ = nullptr;
Encryptor* HeTest::enc_sym_ = nullptr;
Decryptor* HeTest::dec_ = nullptr;
Evaluator* HeTest::eval_ = nullptr;

TEST_F(HeTest, ParamsSatisfyNttConstraints) {
  const auto& p = ctx_->params();
  EXPECT_EQ(p.poly_degree, 2048u);
  for (u64 q : p.q) EXPECT_EQ((q - 1) % (2 * p.poly_degree), 0u);
  EXPECT_EQ((p.t - 1) % (2 * p.poly_degree), 0u);
}

TEST_F(HeTest, SecureProfilesMeetStandardBounds) {
  const auto light = make_params(HeProfile::kLight4096);
  EXPECT_TRUE(light.secure_128);
  EXPECT_LE(light.log2_q(), 109.0);
  const auto prod = make_params(HeProfile::kProd8192);
  EXPECT_TRUE(prod.secure_128);
  EXPECT_LE(prod.log2_q(), 218.0);
  EXPECT_GT(prod.t, u64{1} << 40);  // holds BERT-base MAC accumulations
}

TEST_F(HeTest, U256Arithmetic) {
  U256 a = U256::from_u64(~0ULL);
  U256 b = a + U256::from_u64(1);
  EXPECT_EQ(b.limb[0], 0u);
  EXPECT_EQ(b.limb[1], 1u);
  EXPECT_EQ((b - U256::from_u64(1)).limb[0], ~0ULL);
  const U256 c = U256::from_u64(1234567).mul_u64(7654321);
  EXPECT_EQ(c.limb[0], 1234567ULL * 7654321ULL);
  EXPECT_EQ(c.mod_u64(97), (1234567ULL * 7654321ULL) % 97);
}

TEST_F(HeTest, U256ModLargeValue) {
  // (2^128 + 5) mod 1000003 computed two ways.
  U256 v;
  v.limb[2] = 1;
  v.limb[0] = 5;
  unsigned __int128 r = 1;
  for (int i = 0; i < 128; ++i) r = (r * 2) % 1000003;
  EXPECT_EQ(v.mod_u64(1000003), static_cast<u64>((r + 5) % 1000003));
}

TEST_F(HeTest, CrtComposeRoundTrip) {
  // Encode small signed values into RNS and verify centered mod-t recovery.
  // Values must stay within the centered range (-t/2, t/2] to round-trip.
  // The composition also reports |x - m|: 0 when x is its own residue in
  // [0, t), and t when x in (-t, 0) has the residue x + t.
  const u64 t = ctx_->t();
  ASSERT_GT(t, u64{1} << 20);
  for (i64 val : {i64{0}, i64{1}, i64{-1}, i64{123456}, i64{-400000}}) {
    std::vector<u64> residues(ctx_->rns_size());
    for (std::size_t i = 0; i < ctx_->rns_size(); ++i) {
      const u64 q = ctx_->q(i);
      residues[i] = val >= 0 ? static_cast<u64>(val) % q
                             : q - (static_cast<u64>(-val) % q);
    }
    U256 noise;
    const u64 got = ctx_->compose_center_mod_t(residues, noise);
    EXPECT_EQ(fp_from_ring(got, t), val);
    const U256 want = U256::from_u64(val >= 0 ? 0 : t);
    EXPECT_EQ(noise.limb, want.limb) << val;
  }
}

TEST_F(HeTest, EncodeDecodeRoundTrip) {
  const auto v = random_slots(ctx_->t(), encoder_->slot_count());
  EXPECT_EQ(encoder_->decode(encoder_->encode(v)), v);
}

TEST_F(HeTest, EncodeRejectsOutOfRange) {
  EXPECT_THROW(encoder_->encode({ctx_->t()}), std::invalid_argument);
  EXPECT_THROW(
      encoder_->encode(std::vector<u64>(encoder_->slot_count() + 1, 0)),
      std::invalid_argument);
}

TEST_F(HeTest, SymmetricEncryptDecrypt) {
  const auto v = random_slots(ctx_->t(), 100);
  const auto ct = enc_sym_->encrypt(encoder_->encode(v));
  const auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

TEST_F(HeTest, HomomorphicAdd) {
  const auto a = random_slots(ctx_->t(), 50);
  const auto b = random_slots(ctx_->t(), 50);
  auto ca = enc_sym_->encrypt(encoder_->encode(a));
  const auto cb = enc_sym_->encrypt(encoder_->encode(b));
  eval_->add_inplace(ca, cb);
  const auto out = encoder_->decode(dec_->decrypt(ca));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], (a[i] + b[i]) % ctx_->t());
  }
}

TEST_F(HeTest, HomomorphicSubAndNegate) {
  const auto a = random_slots(ctx_->t(), 50);
  const auto b = random_slots(ctx_->t(), 50);
  auto ca = enc_sym_->encrypt(encoder_->encode(a));
  const auto cb = enc_sym_->encrypt(encoder_->encode(b));
  eval_->sub_inplace(ca, cb);
  eval_->negate_inplace(ca);
  const auto out = encoder_->decode(dec_->decrypt(ca));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], (b[i] + ctx_->t() - a[i]) % ctx_->t());
  }
}

TEST_F(HeTest, AddPlainAndSubPlain) {
  const auto a = random_slots(ctx_->t(), 50);
  const auto b = random_slots(ctx_->t(), 50);
  auto ct = enc_sym_->encrypt(encoder_->encode(a));
  eval_->add_plain_inplace(ct, encoder_->encode(b));
  auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], (a[i] + b[i]) % ctx_->t());
  }
  eval_->sub_plain_inplace(ct, encoder_->encode(b));
  out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(out[i], a[i]);
}

TEST_F(HeTest, MultiplyPlainSlotwise) {
  const auto a = random_slots(1 << 15, 64);
  const auto b = random_slots(1 << 4, 64);
  auto ct = enc_sym_->encrypt(encoder_->encode(a));
  eval_->multiply_plain_inplace(ct, encoder_->encode(b));
  const auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], (a[i] * b[i]) % ctx_->t());
  }
}

TEST_F(HeTest, NttPlaintextMultipliesLikeItsPlaintext) {
  // One transform serves every multiply, bit for bit like the Plaintext
  // overloads that transform on each call.
  const auto pt = encoder_->encode(random_slots(1 << 10, 64));
  const NttPlaintext ntt = eval_->transform_to_ntt(pt);
  const auto a = enc_sym_->encrypt(encoder_->encode(random_slots(1 << 10, 64)));
  const auto b = enc_sym_->encrypt(encoder_->encode(random_slots(1 << 10, 64)));
  auto bytes = [&](const Ciphertext& ct) {
    ByteWriter w;
    eval_->serialize(ct, w);
    return w.take();
  };
  Ciphertext by_pt = a, by_ntt = a;
  eval_->multiply_plain_inplace(by_pt, pt);
  eval_->multiply_plain_inplace(by_ntt, ntt);
  EXPECT_EQ(bytes(by_pt), bytes(by_ntt));
  eval_->multiply_plain_accumulate(by_pt, b, pt);
  eval_->multiply_plain_accumulate(by_ntt, b, ntt);
  EXPECT_EQ(bytes(by_pt), bytes(by_ntt));
  // An operand of another ring, or the empty one, is refused.
  const HeContext other(make_params(HeProfile::kLight4096));
  const NttPlaintext foreign =
      Evaluator(other).transform_to_ntt(BatchEncoder(other).encode({1}));
  EXPECT_THROW(eval_->multiply_plain_inplace(by_ntt, foreign),
               std::invalid_argument);
  EXPECT_THROW(eval_->multiply_plain_inplace(by_ntt, NttPlaintext{}),
               std::invalid_argument);
}

TEST_F(HeTest, LiftsStayBelowEachModulus) {
  // Signed lifts: every residue in [0, q_i), multiples of q_i included.
  const auto q0 = static_cast<std::int64_t>(ctx_->q(0));
  std::vector<std::int64_t> v(ctx_->degree(), 0);
  v[0] = -q0;
  v[1] = q0;
  v[2] = -2 * q0;
  v[3] = -1;
  v[4] = q0 + 5;
  v[5] = -(q0 + 5);
  const RnsPoly lifted = ctx_->lift_signed(v);
  const u64* limb = lifted.limb(0);
  EXPECT_EQ(limb[0], 0u);
  EXPECT_EQ(limb[1], 0u);
  EXPECT_EQ(limb[2], 0u);
  EXPECT_EQ(limb[3], ctx_->q(0) - 1);
  EXPECT_EQ(limb[4], 5u);
  EXPECT_EQ(limb[5], ctx_->q(0) - 5);
  // Plaintext lifts copy coefficients below t and refuse one at t.
  Plaintext pt;
  pt.coeffs.assign(ctx_->degree(), ctx_->t() - 1);
  const RnsPoly m = ctx_->lift_plaintext(pt);
  for (std::size_t i = 0; i < ctx_->rns_size(); ++i) {
    EXPECT_EQ(m.limb(i)[7], ctx_->t() - 1);
  }
  pt.coeffs[7] = ctx_->t();
  EXPECT_THROW(ctx_->lift_plaintext(pt), std::invalid_argument);
}

TEST_F(HeTest, CiphertextMultiplyAndRelinearize) {
  const auto a = random_slots(1 << 9, 32);
  const auto b = random_slots(1 << 9, 32);
  const auto ca = enc_sym_->encrypt(encoder_->encode(a));
  const auto cb = enc_sym_->encrypt(encoder_->encode(b));
  auto prod = eval_->multiply(ca, cb);
  EXPECT_EQ(prod.size(), 3u);
  // Decryption works on the 3-part ciphertext directly...
  auto out = encoder_->decode(dec_->decrypt(prod));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], (a[i] * b[i]) % ctx_->t()) << "pre-relin slot " << i;
  }
  // ...and after relinearization back to 2 parts.
  eval_->relinearize_inplace(prod, *rk_);
  EXPECT_EQ(prod.size(), 2u);
  out = encoder_->decode(dec_->decrypt(prod));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], (a[i] * b[i]) % ctx_->t()) << "post-relin slot " << i;
  }
  EXPECT_GT(dec_->noise_budget(prod), 0.0);
}

TEST_F(HeTest, RotateRowsMatchesSlotRotation) {
  const std::size_t row = encoder_->row_size();
  std::vector<u64> v(2 * row);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i + 1;
  for (int step : {1, 2, 5, -1}) {
    auto ct = enc_sym_->encrypt(encoder_->encode(v));
    eval_->rotate_rows_inplace(ct, step, *gk_);
    const auto out = encoder_->decode(dec_->decrypt(ct));
    for (std::size_t i = 0; i < row; ++i) {
      const std::size_t src =
          (i + static_cast<std::size_t>(step + static_cast<int>(row))) % row;
      ASSERT_EQ(out[i], v[src]) << "step " << step << " slot " << i;
      ASSERT_EQ(out[row + i], v[row + src]) << "step " << step << " row2 " << i;
    }
  }
}

TEST_F(HeTest, RotateMissingKeyThrows) {
  auto ct = enc_sym_->encrypt(encoder_->encode({1}));
  EXPECT_THROW(eval_->rotate_rows_inplace(ct, 123, *gk_),
               std::invalid_argument);
}

TEST_F(HeTest, NoiseBudgetDecreasesWithWork) {
  const auto pt = encoder_->encode(random_slots(1 << 10, 32));
  auto ct = enc_sym_->encrypt(pt);
  const double fresh = dec_->noise_budget(ct);
  eval_->multiply_plain_inplace(ct, pt);
  const double after_mult = dec_->noise_budget(ct);
  EXPECT_LT(after_mult, fresh);
  EXPECT_GT(after_mult, 0.0);
}

TEST_F(HeTest, DeepAddChainStaysCorrect) {
  std::vector<u64> v(16, 1);
  auto acc = enc_sym_->encrypt(encoder_->encode(v));
  const auto one = enc_sym_->encrypt(encoder_->encode(v));
  for (int i = 0; i < 200; ++i) eval_->add_inplace(acc, one);
  const auto out = encoder_->decode(dec_->decrypt(acc));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], 201u);
}

TEST_F(HeTest, SerializationRoundTrip) {
  const auto v = random_slots(ctx_->t(), 64);
  const auto ct = enc_sym_->encrypt(encoder_->encode(v));
  ByteWriter w;
  eval_->serialize(ct, w);
  EXPECT_GE(w.size(), ctx_->params().ciphertext_bytes());
  ByteReader r(w.data());
  const auto ct2 = eval_->deserialize(r);
  const auto out = encoder_->decode(dec_->decrypt(ct2));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

TEST_F(HeTest, OpCountersTrack) {
  eval_->counters().clear();
  const auto pt = encoder_->encode({1, 2});
  auto a = enc_sym_->encrypt(pt);
  const auto b = enc_sym_->encrypt(pt);
  eval_->add_inplace(a, b);
  eval_->multiply_plain_inplace(a, pt);
  eval_->rotate_rows_inplace(a, 1, *gk_);
  EXPECT_EQ(eval_->counters().plain_mults, 1u);
  EXPECT_EQ(eval_->counters().rotations, 1u);
}

}  // namespace
}  // namespace primer
