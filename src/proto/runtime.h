// ProtocolContext: everything a live two-party Primer execution needs —
// the HE stack over a client key set (ClientKeys), the simulated channel,
// the share ring, per-step cost accounting, and the GC stage wrapper.
//
// Both parties run in-process; "client" state and "server" state are kept
// in separate members and only exchanged through the Channel so the traffic
// accounting matches a genuine deployment.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/timing.h"
#include "gc/fixed_circuits.h"
#include "gc/protocol.h"
#include "he/encoder.h"
#include "he/he.h"
#include "net/channel.h"
#include "net/framed_channel.h"
#include "net/session.h"
#include "proto/packing.h"
#include "ss/secret_share.h"

namespace primer {

// Configuration of one protocol session attempt: the transport's fault
// knobs plus the resilience layer (checkpoint store, deadlines,
// cooperative cancellation).  A null store disables checkpointing, the
// resume handshake and journaling — the pre-session behavior.
struct SessionOptions {
  SessionStore* store = nullptr;
  std::uint64_t session_id = 1;
  FaultSpec faults;
  // Per-phase budget in simulated-network + wall seconds (0 disables);
  // checked at frame and step granularity.  PRIMER_PHASE_DEADLINE_S.
  double phase_deadline_s = 0.0;
  // Optional cancel token folded into the same deadline checks; the
  // server's drain fires it at the drain deadline.
  const CancelToken* cancel = nullptr;
  // Optional drain flag: when it flips true, the run stops at the *next*
  // checkpoint boundary — the checkpoint is persisted first, then
  // SessionDrained is thrown, so a later request resumes exactly there.
  // Only honored when a store is attached (without one there is nothing to
  // resume from, so the run is allowed to finish).
  const std::atomic<bool>* drain = nullptr;

  // Faults from PRIMER_FAULT_*, deadline from
  // PRIMER_PHASE_DEADLINE_S; no store or cancellation.  Malformed values
  // throw std::invalid_argument, out-of-range values clamp (common/env.h).
  static SessionOptions from_env();
};

// One client's HE key set: the context the keys belong to, the secret key,
// the relinearization key and every Galois key the protocol objects
// register.  Evaluation keys depend only on the secret key and the model's
// rotation schedule, never on a query, so PrimerEngine keeps one set for
// its lifetime.  Its first completed run ships the keys (transfer_keys
// swaps gk/rk for the server's wire-received copies) and marks the set
// installed; later runs generate and send no key material.
//
// Keys draw from their own RNG stream, Rng(seed ^ kKeyStream): a context's
// client_rng, which draws masks and encryption noise, starts at Rng(seed)
// whether or not its key set generated anything.
class ClientKeys {
 public:
  static constexpr std::uint64_t kKeyStream = 0x6b657973ULL;  // "keys"

  // Generates the secret key, Galois keys for `rotation_steps` and the
  // relinearization key.
  ClientKeys(HeProfile profile, std::uint64_t seed,
             const std::vector<int>& rotation_steps);
  ClientKeys(const ClientKeys&) = delete;
  ClientKeys& operator=(const ClientKeys&) = delete;

  const HeContext he;
  // The keys the server evaluates with: the generated ones until the first
  // transfer_keys replaces them with the copies that crossed the wire
  // (same (b, a) pairs, Shoup tables rebuilt receiver-side).
  GaloisKeys gk;
  RelinKey rk;

  const SecretKey& secret_key() const { return keygen_.secret_key(); }

  // Adds Galois keys for any of `steps` not yet present.  Protocol objects
  // call this from their constructors with the BSGS step sets their packed
  // matmuls and rotate-sums need, so key material always matches the
  // rotation schedule.  Once the set is installed a missing step throws
  // std::logic_error instead: a key minted then would never reach the
  // server.
  void ensure_rotation_steps(const std::vector<int>& steps);

  // Set by the engine when the run that shipped the keys has returned, so
  // every attempt of that run (restarts included) ships the same keys.
  bool installed() const { return installed_; }
  void mark_installed() { installed_ = true; }

 private:
  Rng rng_;  // the key stream
  KeyGenerator keygen_;
  bool installed_ = false;
};

class ProtocolContext {
 public:
  // Runs over `keys`, which must outlive the context.
  ProtocolContext(ClientKeys& keys, std::uint64_t seed,
                  SessionOptions options = SessionOptions::from_env());
  // Generates a private key set for this context alone.
  ProtocolContext(HeProfile profile, std::uint64_t seed,
                  std::vector<int> rotation_steps,
                  SessionOptions options = SessionOptions::from_env());
  ~ProtocolContext();
  ProtocolContext(const ProtocolContext&) = delete;
  ProtocolContext& operator=(const ProtocolContext&) = delete;

 private:
  // Declared first so `keys` can bind to it; null when the keys are shared.
  std::unique_ptr<ClientKeys> own_keys_;

 public:
  ClientKeys& keys;
  const HeContext& he;
  BatchEncoder encoder;
  Rng client_rng;
  Rng server_rng;
  Encryptor enc;            // client symmetric encryptor
  Decryptor dec;            // client decryptor
  Evaluator eval;
  const GaloisKeys& gk;     // server-side evaluation keys
  const RelinKey& rk;
  Channel channel;
  SessionOptions session;
  // Deterministic per-phase deadline polled by the framed channel (every
  // frame) and step() (every protocol step).
  SimDeadline deadline;
  // All protocol traffic (HE, shares, GC, OT) flows through this one framed
  // wrapper: a single pair of per-direction sequence spaces, with fault
  // injection from SessionOptions.
  FramedChannel framed;
  ShareRing ring;
  CostAccumulator costs;
  FixedPointFormat fmt;

  std::uint64_t t() const { return he.t(); }
  std::size_t share_bits() const { return share_width(he.t()); }

  // Runs `fn`, charging its wall-clock time plus the channel traffic it
  // generated to costs[phase][step].  Polls the phase deadline on entry.
  void step(const std::string& phase, const std::string& step_name,
            const std::function<void()>& fn);

  // --- session resilience -------------------------------------------------

  // Runs the resume handshake when a SessionStore is attached: client and
  // server exchange kSessionHello / kSessionResume, agree on the highest
  // checkpoint epoch whose digests match on both sides, and the framed
  // channel restarts its sequence spaces with the agreed replay plan
  // installed.  Without a store this is a no-op (no handshake traffic).
  void start_session();

  // Persists a checkpoint at a phase boundary: both parties snapshot the
  // send watermarks, CRC journal, and received-frame inventory under the
  // next epoch.  `completed` labels the phase that just finished; the
  // deadline budget restarts for the following segment.  No-op without a
  // store, and at boundaries inside the prefix a resumed attempt replays
  // (the deadline still restarts).
  void checkpoint(const std::string& completed);

  // Ships the client's evaluation keys (Galois + relinearization) through
  // the accounted channel — one kKeyMaterial frame per key — and replaces
  // the key set's gk/rk with the wire round-tripped copies, so the server
  // evaluates with keys that genuinely crossed the (fault-injected)
  // transport.  Shoup quotient tables are recomputed receiver-side, never
  // transmitted.  Charged to costs[phase]["key_transfer"].  Callers skip
  // it once the set is installed: the server already holds the keys.
  void transfer_keys(const std::string& phase = "offline");

  // Fingerprint of the negotiated parameters (profile moduli, plaintext
  // modulus, degree, seed, and whether the key set is already installed,
  // which decides if the transcript carries keys) — must match for a
  // resume to be accepted.
  std::uint64_t params_hash() const { return params_hash_; }
  // Epoch the current attempt resumed from (0 = fresh start).
  std::uint32_t resumed_epoch() const { return resumed_epoch_; }
  // Checkpoints taken so far in this attempt.
  std::uint32_t checkpoints_taken() const { return epoch_; }
  // Wire bytes the resume handshake cost this attempt.
  std::uint64_t handshake_bytes() const { return handshake_bytes_; }

  // Ciphertext transfer through the accounted channel.
  void send_cts(Party from, const std::vector<Ciphertext>& cts);
  std::vector<Ciphertext> recv_cts(Party to);

  // Ring-matrix transfer (unencrypted share traffic).
  void send_ring(Party from, const MatI& m);
  MatI recv_ring(Party to, std::size_t rows, std::size_t cols);

  // Bit marshalling between ring matrices and GC input bit vectors.
  std::vector<bool> ring_bits(const MatI& m) const;
  std::vector<bool> ring_bits_row(const MatI& m, std::size_t row) const;
  MatI bits_to_ring(const std::vector<bool>& bits, std::size_t rows,
                    std::size_t cols) const;

 private:
  // Both public constructors land here; `shared` null means `own`.
  ProtocolContext(std::unique_ptr<ClientKeys> own, ClientKeys* shared,
                  std::uint64_t seed, SessionOptions options);

  std::uint64_t params_hash_ = 0;
  std::uint32_t epoch_ = 0;          // checkpoints taken this attempt
  std::uint32_t resumed_epoch_ = 0;  // agreed at the handshake
  std::uint64_t handshake_bytes_ = 0;
};

// One garbled-circuit protocol stage with offline/online cost attribution.
// The circuit is shared and pre-layered (share_layered()): every stage and
// every inference that garbles the same circuit reads one object.
class GcStage {
 public:
  GcStage(ProtocolContext& pc, std::shared_ptr<const Circuit> circuit,
          RevealTo reveal)
      : pc_(pc), session_(pc.framed, pc.server_rng),
        circuit_(std::move(circuit)), reveal_(reveal) {}

  // Garble + transmit tables; charge to costs[phase][step_name].
  void offline(const std::string& phase, const std::string& step_name) {
    const GcStats before = session_.stats();
    pc_.step(phase, step_name, [&] { session_.offline(circuit_, reveal_); });
    charge(phase, step_name, before);
  }

  std::vector<bool> online(const std::string& phase,
                           const std::string& step_name,
                           const std::vector<bool>& garbler_bits,
                           const std::vector<bool>& evaluator_bits) {
    const GcStats before = session_.stats();
    std::vector<bool> out;
    pc_.step(phase, step_name,
             [&] { out = session_.online(garbler_bits, evaluator_bits); });
    charge(phase, step_name, before);
    return out;
  }

 private:
  // Charges the session-stat delta of one offline/online call into the
  // step's PhaseCost, so GC work (AND gates, garble/eval seconds, table
  // traffic) is visible per-step next to the HE op counters.
  void charge(const std::string& phase, const std::string& step_name,
              const GcStats& before) {
    const GcStats& after = session_.stats();
    PhaseCost& cost = pc_.costs.at(phase, step_name);
    cost.gc_and_gates += after.and_gates - before.and_gates;
    cost.gc_garble_seconds += after.garble_seconds - before.garble_seconds;
    cost.gc_eval_seconds += after.eval_seconds - before.eval_seconds;
    cost.gc_table_bytes += after.table_bytes - before.table_bytes;
  }

  ProtocolContext& pc_;
  GcSession session_;
  std::shared_ptr<const Circuit> circuit_;
  RevealTo reveal_;
};

}  // namespace primer
