#include "net/fault.h"

#include <stdexcept>

#include "common/env.h"

namespace primer {

FaultSpec FaultSpec::from_env() {
  FaultSpec s;
  s.seed = env_u64("PRIMER_FAULT_SEED", s.seed);
  s.truncate = env_double("PRIMER_FAULT_TRUNCATE", s.truncate, 0.0, 1.0);
  s.bitflip = env_double("PRIMER_FAULT_BITFLIP", s.bitflip, 0.0, 1.0);
  s.kill_after = env_u64("PRIMER_FAULT_KILL_AFTER", s.kill_after);
  const std::string mode = env_string("PRIMER_FAULT_KILL_MODE", "throw");
  if (mode == "sigkill") {
    s.kill_mode = FaultKillMode::kSigkill;
  } else if (mode != "throw") {
    throw std::invalid_argument("PRIMER_FAULT_KILL_MODE=\"" + mode +
                                "\": expected \"throw\" or \"sigkill\"");
  }
  s.stall_after = env_u64("PRIMER_FAULT_STALL_AFTER", s.stall_after);
  s.stall_s = env_double("PRIMER_FAULT_STALL_S", s.stall_s, 0.0, 86400.0);
  s.stall_wall_s =
      env_double("PRIMER_FAULT_STALL_WALL_S", s.stall_wall_s, 0.0, 3600.0);
  s.hostile_after = env_u64("PRIMER_FAULT_HOSTILE_AFTER", s.hostile_after);
  return s;
}

void FaultSpec::prepare_restart() {
  kill_after = 0;
  stall_after = 0;
  hostile_after = 0;
  seed = Rng(seed).next();
}

FaultInjector::WireEvent FaultInjector::on_wire_frame() {
  WireEvent ev;
  ev.frame_index = ++wire_frames_;
  if (spec_.stall_after != 0 && ev.frame_index == spec_.stall_after) {
    ++counters_.stalled;
    ev.stall_s = spec_.stall_s;
    ev.stall_wall_s = spec_.stall_wall_s;
  }
  if (spec_.hostile_after != 0 && ev.frame_index == spec_.hostile_after) {
    ++counters_.hostile;
    ev.hostile = true;
  }
  if (spec_.kill_after != 0 && ev.frame_index == spec_.kill_after) {
    ++counters_.killed;
    ev.kill = true;
  }
  return ev;
}

bool FaultInjector::roll(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rng_.uniform_real() < p;
}

std::vector<std::uint8_t> FaultInjector::apply(
    std::vector<std::uint8_t> frame) {
  if (roll(spec_.truncate) && !frame.empty()) {
    ++counters_.truncated;
    // Cut anywhere strictly inside the frame, header included.
    frame.resize(rng_.uniform(frame.size()));
  } else if (roll(spec_.bitflip) && !frame.empty()) {
    ++counters_.bitflipped;
    const std::size_t byte = rng_.uniform(frame.size());
    frame[byte] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
  }
  return frame;
}

}  // namespace primer
