// Protocol-layer tests: HGS linear sharing, FHGS Beaver products, CHGS
// merged scores, the LayerNorm circuit, the CtCt baseline product, the
// client key set's lifecycle, and the end-to-end equality of live
// PrimerEngine runs against the fixed-point reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "nn/model.h"
#include "proto/attention.h"
#include "proto/linear.h"
#include "proto/primer.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

std::vector<int> default_steps() { return {1, 2, 4, 8, 16}; }

TEST(HgsLinear, SharesReconstructToProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 11, default_steps());
  const std::size_t n = 4, din = 16, dout = 8;
  Rng rng(5);
  const MatI w = random_fp_matrix(rng, din, dout, -1.0, 1.0);
  const std::vector<std::int64_t> bias(dout, fp_encode(0.25));

  const EncodedMatrix w_enc =
      PackedMatmul(pc.he, pc.encoder, pc.eval, PackingStrategy::kTokensFirst)
          .encode(w, n);
  HgsLinear layer(pc, w, bias, w_enc);
  const MatI rc = pc.ring.random(pc.client_rng, n, din);
  layer.offline("qkv", rc);

  // True input X (raw fixed point), server gets D = X - Rc.
  const MatI x = random_fp_matrix(rng, n, din, -2.0, 2.0);
  const MatI d = pc.ring.sub(pc.ring.reduce(x), rc);
  const auto shares = layer.online("qkv", {rc, d});

  const MatI got = pc.ring.reconstruct(shares);
  const MatI expect = fixed_linear_acc(x, w, &bias);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dout; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // Offline phase must carry the HE traffic; online only plain compute.
  const auto& off = pc.costs.at("offline", "qkv");
  const auto& on = pc.costs.at("online", "qkv");
  EXPECT_GT(off.bytes_sent, 0u);
  EXPECT_EQ(on.bytes_sent, 0u);
  EXPECT_GT(off.he_rotations + off.he_mults, 0u);
  EXPECT_EQ(on.he_mults, 0u);
}

TEST(BaseLinear, SharesReconstructToProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 13, default_steps());
  const std::size_t n = 4, din = 8, dout = 4;
  Rng rng(6);
  const MatI w = random_fp_matrix(rng, din, dout, -1.0, 1.0);
  const EncodedMatrix w_enc =
      PackedMatmul(pc.he, pc.encoder, pc.eval, PackingStrategy::kFeatureBased)
          .encode(w, n);
  BaseLinear layer(pc, w, {}, w_enc);

  const MatI x = random_fp_matrix(rng, n, din, -2.0, 2.0);
  const auto xs = pc.ring.share(x, rng);
  layer.offline("qkv", xs.client);  // nothing to precompute
  const auto shares = layer.online("qkv", xs);
  const MatI got = pc.ring.reconstruct(shares);
  const MatI expect = fixed_linear_acc(x, w, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dout; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // Everything online for the base protocol.
  EXPECT_GT(pc.costs.at("online", "qkv").bytes_sent, 0u);
  EXPECT_EQ(pc.costs.all().count("offline"), 0u);
}

TEST(FhgsProduct, SharesReconstructToMatrixProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 17, default_steps());
  const std::size_t n = 4, k = 8, m = 4;
  Rng rng(7);
  // Raw 15-bit payloads (Q and K^T in the pipeline).
  const MatI a = random_fp_matrix(rng, n, k, -2.0, 2.0);
  const MatI b = random_fp_matrix(rng, k, m, -2.0, 2.0);

  FhgsProduct prod(pc, n, k, m);
  const MatI ra = pc.ring.random(pc.client_rng, n, k);
  const MatI rb = pc.ring.random(pc.client_rng, k, m);
  prod.offline("qk", ra, rb);
  const MatI da = pc.ring.sub(pc.ring.reduce(a), ra);
  const MatI db = pc.ring.sub(pc.ring.reduce(b), rb);
  const auto shares = prod.online("qk", {ra, da}, {rb, db});

  const MatI got = pc.ring.reconstruct(shares);
  const MatI expect = a * b;  // untruncated integer accumulation
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // FHGS property: the ct-ct work is offline; online HE is ct-pt only.
  EXPECT_EQ(pc.costs.at("offline", "qk").he_ct_mults, 0u);
  EXPECT_EQ(pc.costs.at("online", "qk").he_ct_mults, 0u);
  EXPECT_GT(pc.costs.at("online", "qk").he_mults, 0u);
}

TEST(CtCtProduct, SharesReconstructToMatrixProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 19, default_steps());
  const std::size_t n = 4, k = 8, m = 4;
  Rng rng(8);
  const MatI a = random_fp_matrix(rng, n, k, -2.0, 2.0);
  const MatI b = random_fp_matrix(rng, k, m, -2.0, 2.0);
  const auto as = pc.ring.share(a, rng);
  const auto bs = pc.ring.share(b, rng);

  CtCtProduct prod(pc, n, k, m);
  prod.offline("qk", as.client, bs.client);  // nothing to precompute
  const auto shares = prod.online("qk", as, bs);
  const MatI got = pc.ring.reconstruct(shares);
  const MatI expect = a * b;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // The baseline really does ciphertext-ciphertext multiplications online.
  EXPECT_GT(pc.costs.at("online", "qk").he_ct_mults, 0u);
  EXPECT_EQ(pc.costs.all().count("offline"), 0u);
}

TEST(ChgsScores, MatchesMergedScoreComputation) {
  ProtocolContext pc(HeProfile::kProto2048, 23, default_steps());
  const std::size_t n = 4, vocab = 16, d = 8, dh = 4;
  Rng rng(9);
  const MatI we = random_fp_matrix(rng, vocab, d, -0.5, 0.5);
  const MatI pos = random_fp_matrix(rng, n, d, -0.2, 0.2);
  const MatI wq = random_fp_matrix(rng, d, dh, -0.3, 0.3);
  const MatI wk = random_fp_matrix(rng, d, dh, -0.3, 0.3);

  // Integer one-hot input.
  MatI x(n, vocab);
  for (std::size_t i = 0; i < n; ++i) x(i, (i * 5) % vocab) = 1;

  const EncodedMatrix w_m =
      PackedMatmul(pc.he, pc.encoder, pc.eval, PackingStrategy::kTokensFirst)
          .encode(chgs_combined_weight(pc.ring, we, wq, wk), n);
  ChgsScores chgs(pc, n, we, pos, wq, wk, w_m);
  const MatI r0 = pc.ring.random(pc.client_rng, n, vocab);
  chgs.offline("qk", r0);
  const MatI d0 = pc.ring.sub(pc.ring.reduce(x), r0);
  const auto shares = chgs.online("qk", d0);
  const MatI got = pc.ring.reconstruct(shares);

  // Reference: U = X*WE + pos (raw), scores = (U*wq) * (U*wk)^T, 4*frac.
  const MatI u = x * we + pos;
  const MatI gq = u * wq;
  const MatI gk = u * wk;
  const MatI expect = gq * gk.transposed();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
}

TEST(LayerNormCircuit, MatchesFixedReference) {
  const std::uint64_t t = make_params(HeProfile::kProto2048).t;
  const std::size_t w = share_width(t);
  const std::size_t d = 8;
  LayerNormCircuitSpec spec;
  spec.t = t;
  spec.d = d;
  spec.frac_shift = 8;
  spec.gamma.assign(d, fp_encode(1.0));
  spec.beta.assign(d, fp_encode(0.0));
  spec.gamma[2] = fp_encode(1.5);
  spec.beta[3] = fp_encode(-0.25);
  const Circuit c = make_layernorm_circuit(spec);

  Rng rng(31);
  const ShareRing ring(t);
  for (int iter = 0; iter < 5; ++iter) {
    // acc: product-domain values; res: raw values.
    std::vector<std::int64_t> acc(d), res(d);
    for (auto& v : acc) v = rng.uniform_int(-400000, 400000);
    for (auto& v : res) v = rng.uniform_int(-5000, 5000);

    MatI acc_m(1, d), res_m(1, d);
    for (std::size_t i = 0; i < d; ++i) {
      acc_m(0, i) = acc[i];
      res_m(0, i) = res[i];
    }
    const auto acc_sh = ring.share(acc_m, rng);
    const auto res_sh = ring.share(res_m, rng);
    const MatI rc = ring.random(rng, 1, d);

    auto bits_of = [&](const MatI& m) {
      std::vector<bool> bits;
      for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t bb = 0; bb < w; ++bb) {
          bits.push_back((static_cast<std::uint64_t>(m(0, i)) >> bb) & 1);
        }
      }
      return bits;
    };
    std::vector<bool> in = bits_of(acc_sh.server);
    auto tmp = bits_of(res_sh.server);
    in.insert(in.end(), tmp.begin(), tmp.end());
    tmp = bits_of(acc_sh.client);
    in.insert(in.end(), tmp.begin(), tmp.end());
    tmp = bits_of(res_sh.client);
    in.insert(in.end(), tmp.begin(), tmp.end());
    tmp = bits_of(rc);
    in.insert(in.end(), tmp.begin(), tmp.end());

    const auto out = eval_circuit(c, in);

    // Reference.
    std::vector<std::int64_t> s(d);
    for (std::size_t i = 0; i < d; ++i) {
      s[i] = fp_saturate(fp_saturate(acc[i] >> 8) + res[i]);
    }
    const auto expect = fixed_layernorm_row(s, spec.gamma, spec.beta);

    for (std::size_t i = 0; i < d; ++i) {
      std::uint64_t v = 0;
      for (std::size_t bb = 0; bb < w; ++bb) {
        if (out[i * w + bb]) v |= std::uint64_t{1} << bb;
      }
      const std::int64_t got =
          ring.center(static_cast<std::int64_t>(v) + rc(0, i));
      ASSERT_EQ(got, expect[i]) << "element " << i << " iter " << iter;
    }
  }
}

// --- client key set ---------------------------------------------------------

// Keys draw from their own stream: a context's client_rng starts at
// Rng(seed) whether its key set is fresh, already populated and installed
// by earlier runs, or private to the context.
TEST(ClientKeys, ClientRngIndependentOfKeyGeneration) {
  const std::uint64_t seed = 11;
  ClientKeys fresh(HeProfile::kProto2048, seed, {1});
  ClientKeys populated(HeProfile::kProto2048, seed, default_steps());
  populated.ensure_rotation_steps({32, 64});
  populated.mark_installed();
  ProtocolContext over_fresh(fresh, seed, SessionOptions{});
  ProtocolContext over_populated(populated, seed, SessionOptions{});
  ProtocolContext own(HeProfile::kProto2048, seed, default_steps(),
                      SessionOptions{});
  Rng expect(seed);
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t v = expect.next();
    EXPECT_EQ(over_fresh.client_rng.next(), v) << i;
    EXPECT_EQ(over_populated.client_rng.next(), v) << i;
    EXPECT_EQ(own.client_rng.next(), v) << i;
  }
  // Nor is the secret key drawn from the outputs client_rng produces.
  Rng client_stream(seed);
  const KeyGenerator from_client_stream(fresh.he, client_stream);
  const RnsPoly& mine = fresh.secret_key().s;
  const RnsPoly& theirs = from_client_stream.secret_key().s;
  EXPECT_FALSE(std::equal(mine.limb(0), mine.limb(0) + mine.word_count(),
                          theirs.limb(0)));
}

// An installed set never mints a key the server did not receive: steps it
// holds pass, a missing one throws and adds nothing.
TEST(ClientKeys, NoNewGaloisKeyAfterInstall) {
  ClientKeys keys(HeProfile::kProto2048, 3, {1, 2});
  keys.ensure_rotation_steps({4});
  const std::size_t held = keys.gk.keys.size();
  EXPECT_EQ(held, 3u);
  keys.mark_installed();
  EXPECT_NO_THROW(keys.ensure_rotation_steps({1, 2, 4}));
  EXPECT_THROW(keys.ensure_rotation_steps({1, 8}), std::logic_error);
  EXPECT_EQ(keys.gk.keys.size(), held);
}

// --- end-to-end -------------------------------------------------------------

class PrimerE2E : public ::testing::Test {
 protected:
  static BertWeightsI nano_weights() {
    Rng rng(2025);
    const auto cfg = bert_nano();
    return quantize(BertWeightsD::random(cfg, rng));
  }

  // The run's key_transfer step, or null when it shipped no keys.
  static const PhaseCost* key_transfer_step(const PrimerRunResult& r) {
    for (const auto& [phase, steps] : r.costs.all()) {
      const auto s = steps.find("key_transfer");
      if (s != steps.end()) return &s->second;
    }
    return nullptr;
  }
};

TEST_F(PrimerE2E, PrimerFMatchesFixedModelExactly) {
  const auto w = nano_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {3, 17, 9, 28};
  PrimerEngine engine(w, PrimerVariant::kF);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
  EXPECT_EQ(result.predicted, ref.predict(tokens));
  EXPECT_GT(result.offline_total_s(), 0.0);
  EXPECT_GT(result.online_total_s(), 0.0);
  EXPECT_GT(result.total_bytes, 0u);
}

TEST_F(PrimerE2E, PrimerFPMatchesFixedModelExactly) {
  const auto w = nano_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {0, 31, 15, 8};
  PrimerEngine engine(w, PrimerVariant::kFP);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
}

TEST_F(PrimerE2E, PrimerFpcMatchesChgsReference) {
  const auto w = nano_weights();
  const std::vector<std::size_t> tokens = {5, 12, 30, 2};
  PrimerEngine engine(w, PrimerVariant::kFPC);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, fixed_forward_chgs(w, tokens));
  // The merged path should stay close to the standard fixed model.
  const FixedBert ref(w);
  const auto ref_logits = ref.forward(tokens);
  for (std::size_t i = 0; i < ref_logits.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(result.logits[i]),
                static_cast<double>(ref_logits[i]), 64.0);  // 0.25 in value
  }
}

TEST_F(PrimerE2E, PrimerBaseMatchesFixedModelExactly) {
  const auto w = nano_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {7, 7, 19, 23};
  PrimerEngine engine(w, PrimerVariant::kBase);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
  // Base has no offline phase at all.
  EXPECT_EQ(result.offline_total_s(), 0.0);
}

TEST_F(PrimerE2E, OfflineOffloadShrinksOnlineTraffic) {
  const auto w = nano_weights();
  const std::vector<std::size_t> tokens = {1, 2, 3, 4};
  PrimerEngine base(w, PrimerVariant::kBase);
  PrimerEngine fp(w, PrimerVariant::kFP);
  const auto rb = base.run(tokens);
  const auto rf = fp.run(tokens);
  // The paper's headline: offline offload slashes online latency.
  const PhaseCost base_on = rb.costs.phase_total("online");
  const PhaseCost fp_on = rf.costs.phase_total("online");
  EXPECT_LT(fp_on.bytes_sent, base_on.bytes_sent);
  EXPECT_EQ(fp_on.he_ct_mults, 0u);
  EXPECT_GT(base_on.he_ct_mults, 0u);
}

// One engine garbles its model set's circuits and multiplies its encoded
// weights on every inference, and ships its key set once.  Each block gets its own layer-norm constants, so a set
// that reused one block's layer norm for another would change the logits.
// Run 1 generates the keys, charges a key_transfer step and sends exactly
// a fresh engine's transcript; later runs have no key_transfer step and
// send that transcript minus its key transfer (the manifest, one frame per
// Galois key and the relinearization key, in one flight), so any other
// change to the transcript would change the byte, frame or flight count.
TEST_F(PrimerE2E, ModelSetOutlivesTheEngineThatBuiltIt) {
  // Engines own their set jointly: a second engine runs over the set after
  // the engine that built it is gone, and stays bit-identical.
  const BertWeightsI w = nano_weights();
  const std::vector<std::size_t> first_tokens = {3, 17, 9, 28};
  const std::vector<std::size_t> second_tokens = {0, 31, 15, 8};
  std::shared_ptr<const ModelSet> set;
  {
    PrimerEngine original(w, PrimerVariant::kFPC);
    set = original.model_set();
    EXPECT_EQ(original.run(first_tokens).logits,
              fixed_forward_chgs(w, first_tokens));
  }
  EXPECT_EQ(set.use_count(), 1);
  PrimerEngine user(w, PrimerVariant::kFPC, HeProfile::kProto2048, 7, set);
  EXPECT_EQ(user.model_set(), set);
  EXPECT_EQ(user.run(second_tokens).logits,
            fixed_forward_chgs(w, second_tokens));
}

TEST_F(PrimerE2E, EngineReuseTwoBlocksBitIdentical) {
  Rng rng(4242);
  auto cfg = bert_nano();
  cfg.blocks = 2;
  BertWeightsI w = quantize(BertWeightsD::random(cfg, rng));
  for (auto& blk : w.blocks) {
    for (auto* gamma : {&blk.ln1_gamma, &blk.ln2_gamma}) {
      for (auto& g : *gamma) g = fp_encode(0.5 + rng.uniform_real());
    }
    for (auto* beta : {&blk.ln1_beta, &blk.ln2_beta}) {
      for (auto& b : *beta) b = fp_encode(rng.uniform_real() - 0.5);
    }
  }
  const FixedBert ref(w);
  const std::vector<std::vector<std::size_t>> queries = {
      {3, 17, 9, 28}, {0, 31, 15, 8}, {5, 12, 30, 2}};
  for (const PrimerVariant v : {PrimerVariant::kFP, PrimerVariant::kFPC}) {
    SCOPED_TRACE(variant_name(v));
    PrimerEngine engine(w, v);
    EXPECT_EQ(engine.keys(), nullptr);
    const ModelSet* const set = engine.model_set().get();
    EXPECT_EQ(set->qkv == set->attnv, v == PrimerVariant::kFPC);
    EXPECT_EQ(set->ln1.size(), 2u);
    // Both blocks' weights are encoded: W_M per head under CHGS, Q and K
    // otherwise.
    ASSERT_EQ(set->masks.blocks.size(), 2u);
    for (const auto& b : set->masks.blocks) {
      EXPECT_EQ(b.w_m.size(), v == PrimerVariant::kFPC ? cfg.heads : 0u);
      EXPECT_EQ(b.q.masks.empty(), v == PrimerVariant::kFPC);
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto& tokens = queries[q];
      const PrimerRunResult got = engine.run(tokens);
      // One set serves every query: the engine neither rebuilds it nor
      // lets a session keep a reference past its run.
      EXPECT_EQ(engine.model_set().get(), set);
      EXPECT_EQ(engine.model_set().use_count(), 1);
      if (v == PrimerVariant::kFP) {
        // Primer-FP's offline plaintext multiplies are its HGS weight
        // products: one per mask of the set.
        EXPECT_EQ(got.costs.phase_total("offline").he_mults,
                  set->masks.count());
      }
      EXPECT_EQ(got.logits, v == PrimerVariant::kFPC
                                ? fixed_forward_chgs(w, tokens)
                                : ref.forward(tokens));
      const bool shipped = q == 0;
      ASSERT_NE(engine.keys(), nullptr);
      EXPECT_TRUE(engine.keys()->installed());
      const PhaseCost* own = key_transfer_step(got);
      EXPECT_EQ(own != nullptr, shipped);
      if (own != nullptr) {
        EXPECT_GT(own->bytes_sent, 0u);
      }
      const PrimerRunResult fresh = PrimerEngine(w, v).run(tokens);
      const PhaseCost* keys = key_transfer_step(fresh);
      ASSERT_NE(keys, nullptr);
      EXPECT_EQ(got.total_bytes,
                fresh.total_bytes - (shipped ? 0 : keys->bytes_sent));
      EXPECT_EQ(got.frames_sent,
                fresh.frames_sent -
                    (shipped ? 0 : engine.keys()->gk.keys.size() + 2));
      // The keys leave in the OT setup's client flight: no flight of their
      // own.
      EXPECT_EQ(got.rounds, fresh.rounds);
    }
  }
}

}  // namespace
}  // namespace primer
