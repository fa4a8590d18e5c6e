// Deterministic, seeded fault injection for the framed transport.
//
// The injector sits between FramedChannel::send and the underlying
// Channel: every outgoing frame is subjected to independent probability
// rolls for the two byte-damaging faults a reliable byte stream can still
// deliver — truncation and a bit flip.  All randomness comes from one
// seeded Rng, so any failure a soak run finds is replayable from its seed
// alone.  A damaged frame always surfaces as a typed retryable
// ProtocolError at the receiver; recovery is the session layer's job
// (checkpoint + resume), not the transport's.
//
// Configuration is programmatic (FaultSpec) or environment-driven:
//
//   PRIMER_FAULT_SEED      u64 seed (default 1)
//   PRIMER_FAULT_TRUNCATE  P(frame cut short at a random byte)
//   PRIMER_FAULT_BITFLIP   P(one random bit flipped)
//
// Two deterministic (non-probabilistic) triggers model peer death and
// peer hangs at an exact, replayable point in the protocol:
//
//   PRIMER_FAULT_KILL_AFTER   kill the sending process at the Nth wire
//                             frame (1-based; 0 disables)
//   PRIMER_FAULT_KILL_MODE    "throw" (default) surfaces the kill as a
//                             retryable kPeerKilled inside the process;
//                             "sigkill" raises SIGKILL instead — REAL
//                             process death at a deterministic frame, for
//                             crash-consistency tests against the durable
//                             store (tools/crash_soak.py)
//   PRIMER_FAULT_STALL_AFTER  stall delivery of the Nth wire frame
//   PRIMER_FAULT_STALL_S      seconds the stall lasts (simulated time)
//   PRIMER_FAULT_HOSTILE_AFTER  at the Nth wire frame, flip a payload bit
//                             and reseal the CRC: the frame arrives
//                             checksum-valid but structurally hostile, so
//                             the receiver's validator must reject it as a
//                             *fatal* kMalformed (models a malicious peer,
//                             not a lossy wire)
//
// All knob parsing goes through common/env.h: malformed values throw,
// out-of-range values clamp — a typo'd knob can never silently configure a
// different experiment than the one asked for.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace primer {

// How an injected kill manifests: an in-process retryable throw (the
// simulation the restart loop recovers from), or genuine SIGKILL (nothing
// recovers; only fsync'd durable state survives into the next process).
enum class FaultKillMode { kThrow, kSigkill };

struct FaultSpec {
  std::uint64_t seed = 1;
  double truncate = 0.0;
  double bitflip = 0.0;
  std::uint64_t kill_after = 0;   // kill at the Nth wire frame (0 = off)
  FaultKillMode kill_mode = FaultKillMode::kThrow;
  std::uint64_t stall_after = 0;  // stall the Nth wire frame (0 = off)
  double stall_s = 30.0;          // stall duration (simulated seconds)
  std::uint64_t hostile_after = 0;  // reseal-corrupt the Nth frame (0 = off)

  // Probabilistic per-frame faults (the corruption path).
  bool any_random() const { return truncate > 0 || bitflip > 0; }

  // The one rule the restart loop applies before the next attempt: the
  // deterministic triggers modeled a crash, hang or hostile frame of the
  // attempt that failed and must not fire again, and the random-fault seed
  // advances so seeded corruption lands on different wire frames instead
  // of the same index every attempt.
  void prepare_restart();

  // Reads PRIMER_FAULT_* from the environment; unset knobs keep defaults.
  static FaultSpec from_env();
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec)
      : spec_(spec), rng_(spec.seed) {}

  // Rolls the configured faults against `frame` and returns it, truncated
  // or with one bit flipped when a roll hits.
  std::vector<std::uint8_t> apply(std::vector<std::uint8_t> frame);

  // Deterministic liveness triggers, evaluated once per frame that reaches
  // the wire.
  struct WireEvent {
    std::uint64_t frame_index = 0;  // 1-based wire frame counter
    bool kill = false;              // caller must abandon the process
    double stall_s = 0.0;           // extra delivery delay to charge
    bool hostile = false;           // mutate payload + reseal CRC
  };
  WireEvent on_wire_frame();

  struct Counters {
    std::uint64_t truncated = 0;
    std::uint64_t bitflipped = 0;
    std::uint64_t killed = 0;
    std::uint64_t stalled = 0;
    std::uint64_t hostile = 0;
    std::uint64_t total() const {
      return truncated + bitflipped + killed + stalled + hostile;
    }
  };
  const Counters& counters() const { return counters_; }

  const FaultSpec& spec() const { return spec_; }

 private:
  bool roll(double p);

  FaultSpec spec_;
  Rng rng_;
  Counters counters_;
  std::uint64_t wire_frames_ = 0;
};

}  // namespace primer
