// Session-resilience layer: phase-boundary checkpoints, resume handshake
// payloads, and deterministic per-phase deadlines.
//
// The Primer protocol is a long multi-phase exchange (key transfer, packed
// linear layers, GC nonlinear rounds); a peer crash mid-run used to discard
// everything, including the multi-MB evaluation-key transfer the ROADMAP's
// serving runtime wants to amortize across sessions.  This layer makes the
// *session* recoverable:
//
//   * At every phase boundary both parties persist a SessionCheckpoint —
//     negotiated-parameter fingerprint, per-direction send watermarks, the
//     CRC32C journal of every frame below the watermark, and a per-kind
//     inventory of received frames — into a SessionStore.
//
//   * After a crash, a fresh FramedChannel re-attaches via a two-frame
//     handshake (kSessionHello / kSessionResume) that negotiates the
//     highest checkpoint epoch whose digests match on both sides.
//
//   * The protocol then re-executes deterministically from the start; every
//     send whose sequence number lies below the agreed watermark is
//     verified against the journaled CRC and delivered locally without
//     touching the wire ("virtual replay") — the peer already holds those
//     bytes — so only the delta past the checkpoint is sent again, and
//     the resumed run is bit-identical to an unfaulted one.
//
// Checkpoints deliberately persist *transport* state plus integrity
// digests, not party compute state: with both parties seeded
// deterministically, re-execution reconstructs the compute state exactly
// (and the CRC journal proves it), while wire traffic — the scarce
// resource in the paper's WAN setting — is only paid for once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/serialize.h"
#include "common/timing.h"
#include "net/channel.h"
#include "net/frame.h"

namespace primer {

// Thrown by the runtime when a drain request catches a session at a phase
// boundary: the checkpoint for `epoch` was persisted first, so a later
// request from the same client resumes exactly there.  Deliberately not a
// ProtocolError — drain is an orderly shutdown, not a wire fault, and the
// restart loop must not treat it as retryable.
class SessionDrained : public std::runtime_error {
 public:
  SessionDrained(std::uint32_t epoch, const std::string& phase)
      : std::runtime_error("session drained at checkpoint epoch " +
                           std::to_string(epoch) + " (after phase '" + phase +
                           "')"),
        epoch_(epoch) {}
  std::uint32_t epoch() const { return epoch_; }

 private:
  std::uint32_t epoch_;
};

// One phase boundary's durable snapshot.  Both parties save an identical
// checkpoint (the in-process transport is symmetric: everything one party
// sent, the other received), so the digest doubles as a cross-party
// consistency check during the resume handshake.
struct SessionCheckpoint {
  std::uint64_t session_id = 0;
  std::uint32_t epoch = 0;       // 1-based, monotonically increasing
  std::string phase;             // boundary label, e.g. "key_transfer"
  std::uint64_t params_hash = 0; // negotiated-parameter fingerprint
  // Frames 0..watermark-1 in each direction are covered (indexed by the
  // sending party).  The CRC32C journal is *pruned* below journal_base:
  // frames in [0, journal_base) were already CRC-verified during the
  // virtual replay of the epoch this attempt resumed from, so only
  // [journal_base, watermark) carries per-frame CRCs — long sessions do
  // not balloon their checkpoint blobs with journal entries every resumed
  // attempt has already proven.
  std::uint64_t send_watermark[2] = {0, 0};
  std::uint64_t journal_base[2] = {0, 0};
  std::vector<std::uint32_t> frame_crc[2];  // frame_crc[d][i] = seq base+i
  // Received-frame inventory per kind, indexed by the receiving party —
  // how many ciphertext batches, key-material frames, GC table chunks etc.
  // each side holds at this boundary.
  std::uint64_t kind_counts[2][kMessageKindCount] = {};
  std::uint64_t wire_bytes = 0;  // channel total at the boundary (telemetry)

  void serialize(ByteWriter& w) const;
  // Throws ProtocolError(kMalformed) on any structural defect.
  static SessionCheckpoint deserialize(ByteReader& r);

  // CRC32C over the serialized form — the handshake's equality witness.
  std::uint32_t digest() const;
};

// Per-party checkpoint history.  The base class is an in-memory store —
// each party's "local disk" for single-process tests, where the chaos
// harness simulates partial disk loss by dropping individual epochs.  The
// methods are virtual so DurableSessionStore (net/session_fs.h) can back
// the same interface with real crash-consistent files; everything above
// this seam (runtime, serving, engine) only ever sees SessionStore&.
class SessionStore {
 public:
  virtual ~SessionStore() = default;

  virtual void save(Party p, const SessionCheckpoint& cp);
  virtual std::optional<SessionCheckpoint> load(Party p,
                                                std::uint32_t epoch) const;
  virtual std::uint32_t latest_epoch(Party p) const;  // 0 = no checkpoints
  // (epoch, digest) pairs, ascending — the hello message's inventory.
  virtual std::vector<std::pair<std::uint32_t, std::uint32_t>> digests(
      Party p) const;

  virtual void drop(Party p, std::uint32_t epoch);  // simulate losing one
  virtual void clear();
  virtual std::size_t blob_bytes() const;  // total persisted bytes
  // Test hook: corrupt a stored blob in place (digest no longer matches).
  virtual void tamper(Party p, std::uint32_t epoch);

  // Storage-layer telemetry.  The in-memory store reports zeros except for
  // journal/blob growth; the durable store fills in the filesystem story.
  struct Telemetry {
    std::uint64_t bytes_written = 0;     // payload bytes persisted to disk
    std::uint64_t fsyncs = 0;            // file + directory fsync calls
    std::uint64_t degradations = 0;      // persists that fell back to memory
    std::uint64_t recovered_blobs = 0;   // valid blobs adopted by the scan
    std::uint64_t quarantined_blobs = 0; // torn/corrupt blobs quarantined
    bool degraded = false;               // currently running from memory
  };
  virtual Telemetry telemetry() const { return {}; }
  // Most recent degradation, as the typed retryable error the taxonomy
  // assigns it (std::nullopt while the store is healthy).
  virtual std::optional<StorageDegraded> last_degradation() const {
    return std::nullopt;
  }

 protected:
  // Serialized checkpoint blobs by epoch, indexed by party.  Derived
  // stores use this map as their in-memory source of truth and overlay
  // persistence around it.
  std::map<std::uint32_t, std::vector<std::uint8_t>> slots_[2];
};

// ---------------------------------------------------------------------------
// Resume handshake payloads
// ---------------------------------------------------------------------------

// Client -> server: "this is who I am and what I have on disk".
struct SessionHello {
  std::uint64_t session_id = 0;
  std::uint64_t params_hash = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> epochs;  // (epoch, digest)

  std::vector<std::uint8_t> serialize() const;
  static SessionHello deserialize(const std::vector<std::uint8_t>& payload,
                                  const std::string& where);
};

// Server -> client: "resume from this epoch" (0 = fresh start).
struct SessionResume {
  std::uint32_t agreed_epoch = 0;
  std::uint32_t digest = 0;  // digest of the agreed checkpoint (0 if fresh)

  std::vector<std::uint8_t> serialize() const;
  static SessionResume deserialize(const std::vector<std::uint8_t>& payload,
                                   const std::string& where);
};

// Server-side epoch negotiation: the highest epoch present in both
// histories with matching digests.  Epochs missing on either side are
// skipped (partial disk loss degrades to an older checkpoint); if common
// epochs exist but every digest disagrees, the histories have forked and
// resuming would replay divergent state — that is kResumeDiverged.  No
// common epoch at all is a clean fresh start (returns 0).  Session-id or
// parameter mismatches throw kResumeRejected: that peer belongs to a
// different session entirely.
std::uint32_t negotiate_resume_epoch(const SessionHello& hello,
                                     std::uint64_t my_session_id,
                                     std::uint64_t my_params_hash,
                                     const SessionStore& store, Party me);

// Drops every checkpoint `me` holds that was taken under another parameter
// fingerprint.  Each party runs this before it lists or negotiates its
// inventory: such an epoch belongs to another transcript (another seed or
// profile, or keys shipped versus already installed), so replaying it
// could only die with kResumeDiverged, and keeping it would let a durable
// store's keep-last-K retention prefer those stale, higher-numbered epochs
// over the ones the fresh run is about to write.
void drop_foreign_checkpoints(SessionStore& store, Party me,
                              std::uint64_t params_hash);

// ---------------------------------------------------------------------------
// Per-phase deadlines
// ---------------------------------------------------------------------------

// Deterministic phase budget: elapsed time = simulated network seconds
// accrued since the phase started plus wall-clock compute seconds.  The
// simulated component makes injected stalls (PRIMER_FAULT_STALL_*) trip the
// deadline reproducibly regardless of host speed.  The same polls also
// check an optional CancelToken (the server's forced drain fires it).
// check() is polled at frame granularity by FramedChannel and at step
// granularity by the protocol runtime.
class SimDeadline {
 public:
  void configure(const Channel* ch, double budget_s,
                 const CancelToken* cancel) {
    ch_ = ch;
    budget_s_ = budget_s;
    cancel_ = cancel;
    start_phase("session_setup");
  }

  void start_phase(const std::string& phase) {
    phase_ = phase;
    phase_start_sim_ = ch_ != nullptr ? ch_->simulated_seconds() : 0.0;
    wall_.reset();
  }

  const std::string& phase() const { return phase_; }

  double elapsed_s() const {
    const double sim =
        ch_ != nullptr ? ch_->simulated_seconds() - phase_start_sim_ : 0.0;
    return sim + wall_.seconds();
  }

  bool enabled() const { return budget_s_ > 0 || cancel_ != nullptr; }

  // Throws OperationCancelled (token fired) or DeadlineExceeded (budget
  // overrun); `where` names the poll point for the error message.
  void check(const std::string& where) const {
    if (cancel_ != nullptr) cancel_->check(where);
    if (budget_s_ <= 0) return;
    const double elapsed = elapsed_s();
    if (elapsed > budget_s_) {
      throw DeadlineExceeded(phase_, elapsed, budget_s_, where);
    }
  }

 private:
  const Channel* ch_ = nullptr;
  double budget_s_ = 0;
  const CancelToken* cancel_ = nullptr;
  std::string phase_ = "session_setup";
  double phase_start_sim_ = 0;
  Stopwatch wall_;
};

}  // namespace primer
