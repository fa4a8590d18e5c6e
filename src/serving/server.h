// PrimerServer: overload-safe multi-tenant serving runtime in front of
// PrimerEngine.
//
// A fixed worker pool serves a bounded admission queue of client inference
// requests.  Each admitted request becomes a *session* with its own cancel
// token, checkpoint store (cached per client by the SessionManager) and
// typed outcome — so one tenant's hostile frames, deadline trips or
// injected kills can only ever fail that tenant:
//
//   * Admission control: queue depth is capped; a saturated server sheds
//     the newcomer with a typed retryable ServerOverloaded.  Never an
//     unbounded queue.
//   * Fault containment: every session runs through
//     PrimerEngine::run_resilient, so retryable transport faults restart
//     it (resuming from its last checkpoint, injected triggers cleared) up
//     to max_restarts; fatal errors poison the session, quarantine the
//     client and invalidate its cached key material.
//   * Graceful drain: stop admitting, shed the queue, let in-flight
//     sessions persist a checkpoint at their next phase boundary
//     (SessionDrained), force-cancel stragglers at the drain deadline
//     (the session's cancel token, scoped to its thread through the
//     common/parallel.h thread-local token).
//   * Observability: ServerStats snapshots (accepted/shed/completed/...,
//     queue depth, p50/p99 latency).
//
// Worker threads dispatch into the global parallel executor one at a time
// (dispatches serialize on the executor lock), so intra-session parallelism
// composes safely with cross-session concurrency; serving deployments
// typically run PRIMER_THREADS=1 and scale across sessions instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "proto/primer.h"
#include "serving/admission.h"
#include "serving/session_manager.h"

namespace primer {

// One hosted model the server evaluates on behalf of its owner.
struct ModelSpec {
  BertWeightsI weights;
  PrimerVariant variant = PrimerVariant::kFP;
  HeProfile profile = HeProfile::kProto2048;
  std::uint64_t seed = 7;
};

struct ServerConfig {
  std::size_t workers = 4;
  // Cap on *queued* (admitted, not yet running) sessions.  Total load is
  // therefore bounded by max_queue + workers.
  std::size_t max_queue = 16;
  // Per-phase simulated+wall budget forwarded to every session (0 = off).
  double phase_deadline_s = 0.0;
  int max_restarts = 3;
  double drain_deadline_s = 30.0;
  // Root directory for durable per-client checkpoint stores (empty = keep
  // everything in memory).  With a directory set, cached key material and
  // checkpoints survive a real server restart: the next PrimerServer built
  // over the same root re-adopts every client and their first request
  // resumes at zero wire cost.
  std::string store_dir;
};

struct InferenceRequest {
  std::uint64_t client_id = 0;  // nonzero; doubles as the wire session id
  std::size_t model = 0;        // index into the hosted model list
  std::vector<std::size_t> tokens;
  // Per-session injected faults (tests and chaos soaks give each tenant its
  // own failure script; production leaves this default).
  FaultSpec faults;
};

enum class SessionStatus {
  kCompleted,  // logits produced, bit-identical to a standalone run
  kShed,       // never ran: admission refused (overload or drain)
  kRejected,   // never ran: client quarantined or already in flight
  kDrained,    // stopped by a drain request (at a boundary, or forced)
  kFailed,     // retryable faults exhausted the restart budget
  kPoisoned,   // fatal protocol error; client quarantined
};

const char* session_status_name(SessionStatus s);

struct SessionOutcome {
  SessionStatus status = SessionStatus::kFailed;
  std::uint64_t client_id = 0;
  PrimerRunResult result;  // valid iff status == kCompleted
  std::string error;       // human-readable failure (empty on success)
  // Typed failure kind when the terminal error was a ProtocolError.
  std::optional<ProtocolErrorKind> error_kind;
  int restarts = 0;                  // retry attempts consumed
  std::uint32_t checkpoint_epoch = 0;  // last persisted epoch (resume point)
  double wait_s = 0;     // admission queue time
  double service_s = 0;  // worker time (all attempts)
};

// Handle to one admitted session.  The submitting thread blocks on wait();
// observer threads may poll done() concurrently.
class SessionTicket {
 public:
  // Blocks until the session resolves; returns its typed outcome.
  SessionOutcome wait() const;
  bool done() const;
  std::uint64_t client_id() const { return req_.client_id; }

 private:
  friend class PrimerServer;
  explicit SessionTicket(InferenceRequest req) : req_(std::move(req)) {}

  InferenceRequest req_;
  CancelToken cancel_;  // fired only by drain() at its deadline
  Stopwatch queued_;  // measures admission-queue wait
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  SessionOutcome outcome_;
};

struct ServerStats {
  std::uint64_t accepted = 0;   // admitted into the queue
  std::uint64_t shed = 0;       // refused with ServerOverloaded
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // quarantined / duplicate in-flight client
  std::uint64_t drained = 0;
  std::uint64_t failed = 0;
  std::uint64_t poisoned = 0;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  double p50_latency_s = 0;  // wait + service, completed sessions only
  double p99_latency_s = 0;
  SessionManager::Stats sessions;
};

struct DrainReport {
  std::uint64_t shed_queued = 0;       // queued sessions refused at drain
  std::uint64_t drained_running = 0;   // stopped at a checkpoint boundary
  std::uint64_t forced = 0;            // cancelled at the drain deadline
  std::uint64_t completed_during = 0;  // finished normally while draining
  double duration_s = 0;
  bool met_deadline = false;
};

class PrimerServer {
 public:
  explicit PrimerServer(std::vector<ModelSpec> models, ServerConfig cfg = {});
  ~PrimerServer();  // drains (cfg deadline) and joins the pool
  PrimerServer(const PrimerServer&) = delete;
  PrimerServer& operator=(const PrimerServer&) = delete;

  // Admits the request or throws ServerOverloaded (typed, retryable).
  // Throws std::invalid_argument on a malformed request (bad model index,
  // zero client id) — caller bugs, not load conditions.
  std::shared_ptr<SessionTicket> submit(InferenceRequest req);

  // Non-throwing admission: nullptr on shed (reason in *why if non-null).
  std::shared_ptr<SessionTicket> try_submit(InferenceRequest req,
                                            std::string* why = nullptr);

  // Convenience: submit and block for the outcome.
  SessionOutcome infer(InferenceRequest req) { return submit(std::move(req))->wait(); }

  ServerStats stats() const;
  bool draining() const { return drain_flag_.load(std::memory_order_acquire); }

  // Stops admission, sheds the queue, checkpoints in-flight sessions at
  // their next phase boundary and force-cancels stragglers at the deadline
  // (negative = use cfg.drain_deadline_s).  Idempotent; the first caller
  // gets the full report.
  DrainReport drain(double deadline_s = -1.0);

  const SessionManager& sessions() const { return sessions_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  void worker_loop();
  void serve(const std::shared_ptr<SessionTicket>& t);
  void finish(const std::shared_ptr<SessionTicket>& t, SessionOutcome out);
  // Fingerprint of the request identity the per-client checkpoint cache is
  // keyed by: model (and its seed/variant) + token sequence.
  std::uint64_t request_fingerprint(const InferenceRequest& req) const;

  std::vector<ModelSpec> models_;
  // One circuit set per hosted model, shared by all of its sessions.
  std::vector<std::shared_ptr<const ModelCircuits>> circuits_;
  ServerConfig cfg_;
  SessionManager sessions_;
  std::atomic<bool> drain_flag_{false};

  mutable std::mutex mu_;  // guards queue_, running_, stop_
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::shared_ptr<SessionTicket>> queue_;
  std::vector<std::shared_ptr<SessionTicket>> running_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  mutable std::mutex stats_mu_;  // guards counters_ and latencies_
  ServerStats counters_;
  std::vector<double> latencies_s_;
};

}  // namespace primer
