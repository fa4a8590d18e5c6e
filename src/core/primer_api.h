// Public API of the Primer library.
//
// Quickstart:
//
//   #include "core/primer_api.h"
//
//   primer::Rng rng(1);
//   auto session = primer::PrivateInferenceSession::create_random_model(
//       primer::bert_nano(), primer::PrimerVariant::kFPC, rng);
//   auto result = session.infer({3, 17, 9, 28});
//   // result.predicted, result.logits, result.report().
//
// A session pairs a (quantized) BERT model held by the "server" with a
// client input, and runs the selected Primer protocol variant end-to-end
// with real homomorphic encryption and real garbled circuits over a
// byte-accounted simulated channel.  See DESIGN.md for the architecture.
#pragma once

#include <string>
#include <vector>

#include "nn/config.h"
#include "nn/model.h"
#include "nn/thex.h"
#include "nn/train.h"
#include "proto/cost_model.h"
#include "proto/primer.h"
#include "serving/server.h"  // PrimerServer: the multi-tenant entry point

namespace primer {

struct InferenceResult {
  std::vector<std::int64_t> logits;  // raw 15-bit fixed point
  std::vector<double> logits_real;   // decoded
  std::size_t predicted = 0;
  PrimerRunResult run;               // timings, traffic, per-step costs

  // Human-readable latency/traffic summary.
  std::string report() const;
};

class PrivateInferenceSession {
 public:
  PrivateInferenceSession(BertWeightsI weights, PrimerVariant variant,
                          HeProfile profile = HeProfile::kProto2048,
                          std::uint64_t seed = 7);

  // Convenience: a session around a freshly initialized random model.
  static PrivateInferenceSession create_random_model(const BertConfig& config,
                                                     PrimerVariant variant,
                                                     Rng& rng);

  InferenceResult infer(const std::vector<std::size_t>& tokens);

  // The plaintext fixed-point reference the protocol must match bit-exactly
  // (variants kBase/kF/kFP) or track closely (kFPC).
  std::vector<std::int64_t> reference_logits(
      const std::vector<std::size_t>& tokens) const;

  const BertWeightsI& weights() const { return engine_.weights(); }
  PrimerVariant variant() const { return engine_.variant(); }

 private:
  PrimerEngine engine_;
};

}  // namespace primer
