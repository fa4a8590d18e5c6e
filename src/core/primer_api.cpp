#include "core/primer_api.h"

#include <sstream>

namespace primer {

std::string InferenceResult::report() const {
  std::ostringstream os;
  os << "prediction: class " << predicted << "\n";
  os << "logits:";
  for (const double v : logits_real) os << " " << v;
  os << "\n";
  os << "offline: " << run.offline_compute_s << " s compute + "
     << run.offline_network_s << " s network\n";
  os << "online : " << run.online_compute_s << " s compute + "
     << run.online_network_s << " s network\n";
  os << "traffic: " << static_cast<double>(run.total_bytes) / 1e6 << " MB, "
     << run.rounds << " message flights\n";
  os << "per-step (offline_s / online_s):\n";
  for (const char* step : {"embed", "qkv", "qk", "softmax", "attnv", "others"}) {
    const auto& all = run.costs.all();
    double off = 0, on = 0;
    if (auto it = all.find("offline"); it != all.end()) {
      if (auto jt = it->second.find(step); jt != it->second.end()) {
        off = jt->second.total_seconds();
      }
    }
    if (auto it = all.find("online"); it != all.end()) {
      if (auto jt = it->second.find(step); jt != it->second.end()) {
        on = jt->second.total_seconds();
      }
    }
    os << "  " << step << ": " << off << " / " << on << "\n";
  }
  return os.str();
}

PrivateInferenceSession::PrivateInferenceSession(BertWeightsI weights,
                                                 PrimerVariant variant,
                                                 HeProfile profile,
                                                 std::uint64_t seed)
    : engine_(std::move(weights), variant, profile, seed) {}

PrivateInferenceSession PrivateInferenceSession::create_random_model(
    const BertConfig& config, PrimerVariant variant, Rng& rng) {
  return PrivateInferenceSession(quantize(BertWeightsD::random(config, rng)),
                                 variant);
}

InferenceResult PrivateInferenceSession::infer(
    const std::vector<std::size_t>& tokens) {
  InferenceResult r;
  r.run = engine_.run(tokens);
  r.logits = r.run.logits;
  r.predicted = r.run.predicted;
  for (const auto v : r.logits) r.logits_real.push_back(fp_decode(v));
  return r;
}

std::vector<std::int64_t> PrivateInferenceSession::reference_logits(
    const std::vector<std::size_t>& tokens) const {
  if (engine_.variant() == PrimerVariant::kFPC) {
    return fixed_forward_chgs(engine_.weights(), tokens);
  }
  return FixedBert(engine_.weights()).forward(tokens);
}

}  // namespace primer
