// Tests for the public API (core/primer_api.h): session lifecycle, report
// formatting, reference verification, and input validation.
#include <gtest/gtest.h>

#include "core/primer_api.h"

namespace primer {
namespace {

TEST(Api, SessionRunsAndVerifies) {
  Rng rng(3);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kFP, rng);
  const std::vector<std::size_t> tokens = {1, 2, 3, 4};
  auto result = session.infer(tokens);
  EXPECT_EQ(result.logits, session.reference_logits(tokens));
  EXPECT_EQ(result.logits.size(), bert_nano().num_classes);
  EXPECT_EQ(result.logits_real.size(), result.logits.size());
  EXPECT_LT(result.predicted, result.logits.size());
}

TEST(Api, ReportContainsAllSteps) {
  Rng rng(4);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kF, rng);
  auto result = session.infer({0, 1, 2, 3});
  const std::string report = result.report();
  for (const char* key : {"prediction", "offline", "online", "traffic",
                          "embed", "qkv", "softmax", "others"}) {
    EXPECT_NE(report.find(key), std::string::npos) << key;
  }
}

TEST(Api, RejectsNonPowerOfTwoConfigs) {
  Rng rng(5);
  // Paper-size models (n = 30 tokens) cannot run live; the engine says so
  // up front instead of failing deep inside the packing.
  auto cfg = bert_nano();
  cfg.tokens = 6;  // not a power of two
  const auto w = quantize(BertWeightsD::random(cfg, rng));
  EXPECT_THROW(PrimerEngine(w, PrimerVariant::kF), std::invalid_argument);
}

TEST(Api, RejectsModelSetOfAnotherModel) {
  Rng rng(7);
  const auto w = quantize(BertWeightsD::random(bert_nano(), rng));
  const PrimerEngine fp(w, PrimerVariant::kFP);
  // Same weights, variant and profile: the set is shared, not rebuilt.
  const PrimerEngine peer(w, PrimerVariant::kFP, HeProfile::kProto2048, 7,
                          fp.model_set());
  EXPECT_EQ(peer.model_set(), fp.model_set());
  // Primer-F garbles the same circuits but packs its weights feature-based;
  // CHGS garbles other circuits and encodes W_M instead of Q and K.
  for (const PrimerVariant v : {PrimerVariant::kF, PrimerVariant::kFPC}) {
    EXPECT_THROW(
        PrimerEngine(w, v, HeProfile::kProto2048, 7, fp.model_set()),
        std::invalid_argument)
        << variant_name(v);
  }
  // Another profile encodes under other moduli (and another t).
  for (const HeProfile p : {HeProfile::kTest2048, HeProfile::kProd8192}) {
    EXPECT_THROW(PrimerEngine(w, PrimerVariant::kFP, p, 7, fp.model_set()),
                 std::invalid_argument)
        << make_params(p).name;
  }
}

TEST(Api, RejectsOutOfVocabToken) {
  Rng rng(6);
  auto session = PrivateInferenceSession::create_random_model(
      bert_nano(), PrimerVariant::kF, rng);
  EXPECT_THROW(session.infer({1000, 0, 0, 0}), std::invalid_argument);
}

TEST(Api, DeterministicAcrossSessionsWithSameSeed) {
  Rng rng_a(9), rng_b(9);
  auto wa = quantize(BertWeightsD::random(bert_nano(), rng_a));
  auto wb = quantize(BertWeightsD::random(bert_nano(), rng_b));
  PrivateInferenceSession sa(wa, PrimerVariant::kFP);
  PrivateInferenceSession sb(wb, PrimerVariant::kFP);
  const std::vector<std::size_t> tokens = {8, 8, 8, 8};
  EXPECT_EQ(sa.infer(tokens).logits, sb.infer(tokens).logits);
}

}  // namespace
}  // namespace primer
