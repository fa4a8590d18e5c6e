// Key-switch data-path tests: hoisted rotation sets vs. the per-rotation
// path (bit-exact), the kernel-fused key_switch vs. a naive per-coefficient
// reference (bit-exact), rejection of keys without Shoup quotient tables,
// BSGS packed matmul vs. the sequential diagonal walk (exact decrypted
// output), gadget decomposition structure, the rotate-then-multiply noise
// headroom the BSGS schedule depends on, and arena reuse determinism across
// thread counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/arena.h"
#include "common/fixed_point.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "he/encoder.h"
#include "he/he.h"
#include "proto/packing.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

struct Fixture {
  explicit Fixture(HeProfile profile, std::uint64_t seed = 7)
      : ctx(make_params(profile)),
        rng(seed),
        keygen(ctx, rng),
        encoder(ctx),
        enc(ctx, keygen.secret_key(), rng),
        dec(ctx, keygen.secret_key()),
        eval(ctx) {}

  Ciphertext encrypt_iota() {
    std::vector<u64> slots(encoder.slot_count());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i] = (i * 97 + 13) % ctx.t();
    }
    return enc.encrypt(encoder.encode(slots));
  }

  HeContext ctx;
  Rng rng;
  KeyGenerator keygen;
  BatchEncoder encoder;
  Encryptor enc;
  Decryptor dec;
  Evaluator eval;
};

std::vector<std::uint8_t> ct_bytes(const Evaluator& eval,
                                   const Ciphertext& ct) {
  ByteWriter w;
  eval.serialize(ct, w);
  return w.take();
}

// Naive reference key switch: decompose c into the key's gadget digits with
// plain per-coefficient arithmetic (the PR 3 data path), transform, and
// accumulate digit x key products with fully-reduced context ops.  Every
// step fully reduces, so the kernel-fused path must match bit for bit.
void naive_key_switch(const HeContext& ctx, const RnsPoly& c_in,
                      const KSwitchKey& key, RnsPoly& acc0, RnsPoly& acc1) {
  RnsPoly c = c_in;
  ctx.to_coeff(c);
  const std::size_t k = ctx.rns_size();
  const std::size_t n = ctx.degree();
  const auto layout = ctx.decomp_layout(key.decomp_bits);
  ASSERT_EQ(layout.size(), key.digits());
  for (std::size_t f = 0; f < layout.size(); ++f) {
    RnsPoly digit(k, n, false);
    const u64* src = c.limb(layout[f].limb);
    for (std::size_t j = 0; j < k; ++j) {
      u64* dst = digit.limb(j);
      for (std::size_t x = 0; x < n; ++x) {
        if (key.decomp_bits == 0) {
          dst[x] = ctx.barrett(j).reduce(src[x]);
        } else {
          dst[x] = (src[x] >> layout[f].shift) &
                   ((u64{1} << key.decomp_bits) - 1);
        }
      }
    }
    ctx.to_ntt(digit);
    RnsPoly db = ctx.multiply(digit, key.b[f]);
    ctx.multiply_inplace(digit, key.a[f]);
    ctx.add_inplace(acc0, db);
    ctx.add_inplace(acc1, digit);
  }
}

TEST(KeySwitch, KernelFusedMatchesNaiveReferenceBitExact) {
  for (const HeProfile profile :
       {HeProfile::kTest2048, HeProfile::kProto2048, HeProfile::kLight4096}) {
    Fixture f(profile);
    const std::size_t k = f.ctx.rns_size();
    const std::size_t n = f.ctx.degree();
    RnsPoly c(k, n, false);
    for (std::size_t i = 0; i < k; ++i) {
      f.rng.fill_uniform_mod(c.limb(i), n, f.ctx.q(i));
    }
    f.ctx.to_ntt(c);
    // Both digit layouts: the relin key (CRT digits, reduce_span path) and
    // a Galois key (sub-digits).
    const RelinKey rk = f.keygen.make_relin_key();
    GaloisKeys gk = f.keygen.make_galois_keys({1});
    const KSwitchKey& galois_key = gk.keys.begin()->second;
    for (const KSwitchKey* key : {&rk.key, &galois_key}) {
      RnsPoly fused0(k, n, true), fused1(k, n, true);
      f.eval.key_switch(c, *key, fused0, fused1);
      RnsPoly ref0(k, n, true), ref1(k, n, true);
      naive_key_switch(f.ctx, c, *key, ref0, ref1);
      for (std::size_t wi = 0; wi < fused0.word_count(); ++wi) {
        ASSERT_EQ(fused0.data()[wi], ref0.data()[wi])
            << "acc0 word " << wi << " decomp_bits " << key->decomp_bits;
        ASSERT_EQ(fused1.data()[wi], ref1.data()[wi])
            << "acc1 word " << wi << " decomp_bits " << key->decomp_bits;
      }
    }
  }
}

TEST(KeySwitch, KeyWithoutShoupTablesIsRejected) {
  // The Shoup-lazy accumulation is the only key-switch path, so a key whose
  // quotient tables are missing (or do not cover every digit) must be
  // refused, not read out of bounds.
  Fixture f(HeProfile::kTest2048);
  const std::size_t k = f.ctx.rns_size();
  const std::size_t n = f.ctx.degree();
  RnsPoly c(k, n, true);
  const RelinKey rk = f.keygen.make_relin_key();
  KSwitchKey stripped;
  stripped.decomp_bits = rk.key.decomp_bits;
  stripped.b = rk.key.b;
  stripped.a = rk.key.a;
  RnsPoly a0(k, n, true), a1(k, n, true);
  EXPECT_THROW(f.eval.key_switch(c, stripped, a0, a1), std::invalid_argument);
  stripped.b_shoup = rk.key.b_shoup;
  stripped.a_shoup = rk.key.a_shoup;
  stripped.a_shoup.pop_back();
  EXPECT_THROW(f.eval.key_switch(c, stripped, a0, a1), std::invalid_argument);
  stripped.a_shoup = rk.key.a_shoup;
  f.eval.key_switch(c, stripped, a0, a1);  // the complete key is accepted
}

TEST(KeySwitch, HoistedSetMatchesSingleRotationsBitExact) {
  for (const HeProfile profile :
       {HeProfile::kTest2048, HeProfile::kProto2048, HeProfile::kLight4096}) {
    Fixture f(profile);
    const std::vector<int> steps{1, 2, 5, 0, -3, 16};
    const GaloisKeys gk = f.keygen.make_galois_keys(steps);
    const Ciphertext ct = f.encrypt_iota();
    const auto hoisted = f.eval.rotate_rows_many(ct, steps, gk);
    ASSERT_EQ(hoisted.size(), steps.size());
    for (std::size_t s = 0; s < steps.size(); ++s) {
      Ciphertext single = ct;
      if (steps[s] != 0) {
        f.eval.rotate_rows_inplace(single, steps[s], gk);
      }
      EXPECT_EQ(ct_bytes(f.eval, single), ct_bytes(f.eval, hoisted[s]))
          << "step " << steps[s] << " profile "
          << f.ctx.params().name;
    }
  }
}

TEST(KeySwitch, GaloisKeysUseSubDigitsRelinUsesCrtDigits) {
  Fixture f(HeProfile::kProto2048);
  const std::size_t k = f.ctx.rns_size();
  const RelinKey rk = f.keygen.make_relin_key();
  EXPECT_EQ(rk.key.decomp_bits, 0u);
  EXPECT_EQ(rk.key.digits(), k);
  GaloisKeys gk = f.keygen.make_galois_keys({1});
  const KSwitchKey& key = gk.keys.begin()->second;
  EXPECT_EQ(key.decomp_bits, f.ctx.galois_decomp_bits());
  EXPECT_GT(key.decomp_bits, 0u);
  // Half-width sub-digits: two per RNS limb at these modulus sizes.
  EXPECT_EQ(key.digits(), 2 * k);
  EXPECT_EQ(f.ctx.decomp_layout(key.decomp_bits).size(), key.digits());
}

TEST(KeySwitch, RotateThenMultiplyKeepsNoiseBudget) {
  // Regression guard for the BSGS ordering: plaintext masks multiply into
  // ALREADY-ROTATED ciphertexts, so a rotation must leave ~log2(t*n) bits
  // of budget.  With full-width CRT galois digits this went negative.
  Fixture f(HeProfile::kProto2048);
  const GaloisKeys gk = f.keygen.make_galois_keys({4});
  Ciphertext ct = f.encrypt_iota();
  f.eval.rotate_rows_inplace(ct, 4, gk);
  std::vector<u64> mask(f.encoder.slot_count());
  f.rng.fill_uniform_mod(mask, f.ctx.t());
  f.eval.multiply_plain_inplace(ct, f.encoder.encode(mask));
  EXPECT_GT(f.dec.noise_budget(ct), 15.0);
}

// Sequential diagonal reference for the tokens-first packed matmul: walks
// every alignment k with its own rotation of the fresh input — the seed
// PR 1 schedule — using only public evaluator ops.  Exact ring arithmetic,
// so its decryption must equal the BSGS path's output entry for entry.
MatI sequential_tokens_first_matmul(Fixture& f, const Ciphertext& packed,
                                    const MatI& w_raw, std::size_t tokens,
                                    const GaloisKeys& gk, std::size_t d_in,
                                    std::size_t d_out) {
  const std::size_t row = f.encoder.row_size();
  const std::size_t fpc = row / tokens;
  const u64 t = f.ctx.t();
  Ciphertext acc;
  bool acc_set = false;
  Ciphertext rotated = packed;  // rot_{k*step} built one step at a time
  for (std::size_t k = 0; k < fpc; ++k) {
    if (k != 0) {
      f.eval.rotate_rows_inplace(rotated, static_cast<int>(tokens), gk);
    }
    std::vector<u64> mask(row, 0);
    bool any = false;
    for (std::size_t b = 0; b < fpc; ++b) {
      const std::size_t o = b;
      if (o >= d_out) break;
      const std::size_t j = (b + k) % fpc;
      if (j >= d_in) continue;
      for (std::size_t i = 0; i < tokens; ++i) {
        mask[b * tokens + i] = fp_to_ring(w_raw(j, o), t);
      }
      any = true;
    }
    if (!any) continue;
    Ciphertext term = rotated;
    f.eval.multiply_plain_inplace(term, f.encoder.encode(mask));
    if (acc_set) {
      f.eval.add_inplace(acc, term);
    } else {
      acc = std::move(term);
      acc_set = true;
    }
  }
  const auto slots = f.encoder.decode(f.dec.decrypt(acc));
  MatI out(tokens, d_out);
  for (std::size_t o = 0; o < d_out; ++o) {
    for (std::size_t i = 0; i < tokens; ++i) {
      out(i, o) = static_cast<std::int64_t>(slots[o * tokens + i]);
    }
  }
  return out;
}

TEST(KeySwitch, BsgsMatmulMatchesSequentialDiagonalWalk) {
  Fixture f(HeProfile::kProto2048, 31);
  const std::size_t tokens = 8, d_in = 16, d_out = 8;
  const ShareRing ring(f.ctx.t());
  const MatI x = ring.random(f.rng, tokens, d_in);
  const MatI w = random_fp_matrix(f.rng, d_in, d_out, -1.0, 1.0);

  PackedMatmul mm(f.ctx, f.encoder, f.eval, PackingStrategy::kTokensFirst);
  std::vector<int> steps = mm.rotation_steps(tokens, d_in, d_out);
  steps.push_back(static_cast<int>(tokens));  // the sequential walk's step
  const GaloisKeys gk = f.keygen.make_galois_keys(steps);

  const auto packed = mm.encrypt_input(x, f.enc);
  ASSERT_EQ(packed.size(), 1u);
  const auto result = mm.multiply(packed, mm.encode(w, tokens), gk, nullptr);
  const MatI bsgs = mm.decrypt_result(result, f.dec, tokens, d_out);

  const MatI seq = sequential_tokens_first_matmul(f, packed[0], w, tokens, gk,
                                                  d_in, d_out);
  for (std::size_t i = 0; i < tokens; ++i) {
    for (std::size_t o = 0; o < d_out; ++o) {
      ASSERT_EQ(bsgs(i, o), seq(i, o)) << "entry " << i << "," << o;
    }
  }
}

TEST(KeySwitch, ArenaReuseIsDeterministicAcrossThreadsAndRuns) {
  // The arena hands back dirty buffers; no hot path may read a word it did
  // not write.  Run the hoisted rotation set and the BSGS matmul twice per
  // thread count (second run reuses warm arena buffers) and require
  // bit-identical ciphertexts everywhere.
  const std::size_t prev_threads = num_threads();
  std::vector<std::vector<std::uint8_t>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    for (int repeat = 0; repeat < 2; ++repeat) {
      Fixture f(HeProfile::kProto2048, 19);
      const std::vector<int> steps{1, 3, 4, 8};
      const GaloisKeys gk = f.keygen.make_galois_keys(steps);
      const Ciphertext ct = f.encrypt_iota();
      ByteWriter w;
      for (const auto& r : f.eval.rotate_rows_many(ct, steps, gk)) {
        f.eval.serialize(r, w);
      }
      PackedMatmul mm(f.ctx, f.encoder, f.eval,
                      PackingStrategy::kTokensFirst);
      const GaloisKeys mgk =
          f.keygen.make_galois_keys(mm.rotation_steps(4, 16, 8));
      const ShareRing ring(f.ctx.t());
      const MatI x = ring.random(f.rng, 4, 16);
      const MatI wm = random_fp_matrix(f.rng, 16, 8, -1.0, 1.0);
      const auto packed = mm.encrypt_input(x, f.enc);
      for (const auto& r :
           mm.multiply(packed, mm.encode(wm, 4), mgk, nullptr)) {
        f.eval.serialize(r, w);
      }
      runs.push_back(w.take());
    }
  }
  set_num_threads(prev_threads);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0], runs[i]) << "run " << i;
  }
}

TEST(PolyArenaTest, CheckoutRecyclesAndScratchReleases) {
  PolyArena arena;  // fresh instance — local() carries earlier tests' cache
  u64* p1 = nullptr;
  {
    auto s1 = arena.checkout(256);
    ASSERT_GE(s1.words(), 256u);
    p1 = s1.data();
    s1.data()[0] = 42;
    s1.data()[255] = 7;
  }
  EXPECT_EQ(arena.cached(), 1u);
  {
    // Same-size checkout reuses the released buffer (dirty).
    auto s2 = arena.checkout(256);
    EXPECT_EQ(s2.data(), p1);
    EXPECT_EQ(arena.cached(), 0u);
    s2.zero();
    EXPECT_EQ(s2.data()[0], 0u);
    EXPECT_EQ(s2.data()[255], 0u);
  }
  {
    auto big = arena.checkout(4096);
    big.data()[4095] = 1;
    // Best-fit: the small request must reuse the 256-word buffer, not a
    // fresh allocation (one buffer cached, fits, smallest fit).
    auto small = arena.checkout(64);
    EXPECT_EQ(small.data(), p1);
    EXPECT_EQ(arena.cached(), 0u);
  }
  EXPECT_EQ(arena.cached(), 2u);
}

TEST(KeySwitch, MismatchedKeyDecompositionThrows) {
  Fixture f(HeProfile::kTest2048);
  const std::size_t k = f.ctx.rns_size();
  const std::size_t n = f.ctx.degree();
  RnsPoly c(k, n, true);
  const RelinKey rk = f.keygen.make_relin_key();
  const HoistedKeySwitch hoist(f.ctx, c, f.ctx.galois_decomp_bits());
  RnsPoly a0(k, n, true), a1(k, n, true);
  EXPECT_THROW(hoist.apply(1, rk.key, a0, a1), std::invalid_argument);
}

}  // namespace
}  // namespace primer
