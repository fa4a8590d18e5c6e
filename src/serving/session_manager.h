// Per-client session state cache for the serving runtime.
//
// The expensive part of a Primer session is its key material, in wire and
// in compute: at kProd8192 the Galois/relin keys are 206 of 297 MB on the
// wire, and generating and (de)serializing them costs about 1.2 s of
// compute (BERT-nano, 2 threads on a 4-core AVX-512 Xeon).  Every
// ciphertext the protocol already moved adds to the wire.  Each session
// builds its own engine, so it generates and ships its own key set; the
// SessionManager keeps one SessionStore per client
// across requests, so a reconnecting client resumes through the PR 8
// kSessionHello/kSessionResume handshake and replays the checkpointed
// prefix — key material included — at zero wire cost.
//
// With a durable root directory the stores are DurableSessionStores
// (net/session_fs.h) laid out as
//
//   <root>/client_<id>/       the client's checkpoint blobs
//   <root>/client_<id>.fp     its request fingerprint (atomic 8-byte file)
//
// and the constructor re-adopts every client found on disk — so cached
// key material survives a REAL process restart: a returning client's next
// request replays the key transfer at zero wire cost against a freshly
// exec'd server.  Without a root the stores are the in-memory base class
// (the pre-durability behavior, still used by tests and benches).
//
// Isolation rules:
//   * at most one in-flight session per client (two concurrent sessions
//     would race one checkpoint history);
//   * the cache is keyed by a request fingerprint — a client that shows up
//     with different tokens/model gets a cleared store, because replaying a
//     different protocol against an old journal would (correctly) die with
//     kResumeDiverged;
//   * a client whose session died on a *fatal* protocol error is
//     quarantined: its cached keys and checkpoints are dropped (they are
//     untrustworthy) and every later request is refused.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/session.h"
#include "net/session_fs.h"

namespace primer {

class SessionManager {
 public:
  // In-memory stores only (no durability).
  SessionManager() = default;
  // Durable mode: per-client stores rooted at `store_root` (created if
  // missing); an empty root means in-memory.  Re-adopts every client
  // directory found under the root.
  explicit SessionManager(std::string store_root);

  enum class Acquire {
    kOk,           // lease granted
    kQuarantined,  // client poisoned earlier; request must be refused
    kBusy,         // client already has an in-flight session
  };

  struct Lease {
    SessionStore* store = nullptr;
    // True when the store already held checkpoints for this fingerprint —
    // the resumed run will replay them instead of re-paying the wire.
    bool resumable = false;
  };

  // Grants (or refuses) the client's session slot.  On kOk the lease's
  // store stays valid until release(); on a fingerprint change the store is
  // cleared first.  `why` (optional) receives the quarantine reason.
  Acquire acquire(std::uint64_t client_id, std::uint64_t fingerprint,
                  Lease* lease, std::string* why = nullptr);

  void release(std::uint64_t client_id);

  // Poisons the client: clears its cached key material + checkpoints and
  // refuses every later acquire.  Called by the server when a session dies
  // on a fatal (non-retryable) protocol error.
  void quarantine(std::uint64_t client_id, const std::string& reason);
  bool is_quarantined(std::uint64_t client_id) const;

  struct Stats {
    std::size_t clients = 0;      // distinct clients seen
    std::size_t quarantined = 0;  // currently poisoned
    std::size_t in_flight = 0;    // leases outstanding
    std::size_t store_bytes = 0;  // persisted checkpoint bytes, all clients
    std::uint64_t resumable_hits = 0;  // leases that found checkpoints
    std::uint64_t resets = 0;          // stores cleared on fingerprint change
    // Durable-storage telemetry, aggregated across every client store
    // (all zero in in-memory mode).
    std::uint64_t recovered_clients = 0;   // re-adopted from disk at boot
    std::uint64_t store_bytes_written = 0;
    std::uint64_t store_fsyncs = 0;
    std::uint64_t store_degradations = 0;  // persists that fell back to RAM
    std::uint64_t store_recovered_blobs = 0;
    std::uint64_t store_quarantined_blobs = 0;
    std::size_t stores_degraded = 0;       // stores currently memory-only
  };
  Stats stats() const;

  bool durable() const { return !store_root_.empty(); }
  const std::string& store_root() const { return store_root_; }

 private:
  struct ClientState {
    // Polymorphic seam: an in-memory SessionStore or a DurableSessionStore,
    // chosen by the manager's mode.
    std::unique_ptr<SessionStore> store;
    std::uint64_t fingerprint = 0;
    bool in_flight = false;
    bool quarantined = false;
    std::string quarantine_reason;
  };

  // Creates the state (and its store) for a client id; caller holds mu_.
  ClientState& client_locked(std::uint64_t client_id);
  std::string client_dir(std::uint64_t client_id) const;
  std::string fingerprint_path(std::uint64_t client_id) const;
  void persist_fingerprint(std::uint64_t client_id, std::uint64_t fp);
  // Boot-time re-adoption of client_<id>/ directories under the root.
  void adopt_existing_clients();

  // unique_ptr keeps ClientState (and the SessionStore a worker holds a
  // lease on) at a stable address while the map rehashes under new clients.
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<ClientState>> clients_;
  std::string store_root_;
  std::uint64_t resumable_hits_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t recovered_clients_ = 0;
};

}  // namespace primer
