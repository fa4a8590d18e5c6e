#include "serving/server.h"

#include <algorithm>
#include <chrono>

#include "common/serialize.h"
#include "net/crc32c.h"

namespace primer {

const char* session_status_name(SessionStatus s) {
  switch (s) {
    case SessionStatus::kCompleted: return "completed";
    case SessionStatus::kShed: return "shed";
    case SessionStatus::kRejected: return "rejected";
    case SessionStatus::kDrained: return "drained";
    case SessionStatus::kFailed: return "failed";
    case SessionStatus::kPoisoned: return "poisoned";
  }
  return "unknown";
}

SessionOutcome SessionTicket::wait() const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_; });
  return outcome_;
}

bool SessionTicket::done() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_;
}

PrimerServer::PrimerServer(std::vector<ModelSpec> models, ServerConfig cfg)
    : models_(std::move(models)), cfg_(cfg), sessions_(cfg.store_dir) {
  if (models_.empty()) {
    throw std::invalid_argument("PrimerServer: at least one model required");
  }
  for (const ModelSpec& spec : models_) {
    circuits_.push_back(std::make_shared<const ModelCircuits>(
        spec.weights, spec.variant, make_params(spec.profile).t));
  }
  const std::size_t n = std::max<std::size_t>(1, cfg_.workers);
  cfg_.workers = n;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PrimerServer::~PrimerServer() {
  drain(cfg_.drain_deadline_s);
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::uint64_t PrimerServer::request_fingerprint(
    const InferenceRequest& req) const {
  const ModelSpec& spec = models_[req.model];
  ByteWriter w;
  w.u64(req.model);
  w.u64(spec.seed);
  w.u8(static_cast<std::uint8_t>(spec.variant));
  w.u8(static_cast<std::uint8_t>(spec.profile));
  w.u64(req.tokens.size());
  for (const std::size_t t : req.tokens) w.u64(t);
  const std::uint32_t crc = crc32c(w.data().data(), w.size());
  // Never 0: the SessionManager uses fingerprint 0 as "no prior request".
  return (static_cast<std::uint64_t>(crc) << 1) | 1u;
}

std::shared_ptr<SessionTicket> PrimerServer::submit(InferenceRequest req) {
  std::string why;
  auto t = try_submit(std::move(req), &why);
  if (t == nullptr) {
    std::size_t depth = 0, running = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      depth = queue_.size();
      running = running_.size();
    }
    throw ServerOverloaded(why, depth, running);
  }
  return t;
}

std::shared_ptr<SessionTicket> PrimerServer::try_submit(InferenceRequest req,
                                                        std::string* why) {
  if (req.client_id == 0) {
    throw std::invalid_argument("PrimerServer::submit: client_id must be nonzero");
  }
  if (req.model >= models_.size()) {
    throw std::invalid_argument("PrimerServer::submit: model index " +
                                std::to_string(req.model) + " out of range");
  }
  auto shed = [&](const std::string& reason) -> std::shared_ptr<SessionTicket> {
    if (why != nullptr) *why = reason;
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++counters_.shed;
    return nullptr;
  };
  if (draining()) return shed("server draining");
  std::shared_ptr<SessionTicket> t(new SessionTicket(std::move(req)));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return shed("server stopped");
    if (queue_.size() >= cfg_.max_queue) return shed("admission queue full");
    queue_.push_back(t);
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++counters_.accepted;
  }
  work_cv_.notify_one();
  return t;
}

void PrimerServer::worker_loop() {
  for (;;) {
    std::shared_ptr<SessionTicket> t;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      t = queue_.front();
      queue_.pop_front();
      running_.push_back(t);
    }
    serve(t);
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), t));
    }
    idle_cv_.notify_all();
  }
}

void PrimerServer::serve(const std::shared_ptr<SessionTicket>& t) {
  SessionOutcome out;
  out.client_id = t->req_.client_id;
  out.wait_s = t->queued_.seconds();
  Stopwatch service;

  // Per-client session slot: quarantined and duplicate-in-flight clients
  // are refused before any protocol work.
  SessionManager::Lease lease;
  std::string why;
  switch (sessions_.acquire(t->req_.client_id, request_fingerprint(t->req_),
                            &lease, &why)) {
    case SessionManager::Acquire::kQuarantined:
      out.status = SessionStatus::kRejected;
      out.error = "client quarantined: " + why;
      out.service_s = service.seconds();
      finish(t, std::move(out));
      return;
    case SessionManager::Acquire::kBusy:
      out.status = SessionStatus::kRejected;
      out.error = why;
      out.service_s = service.seconds();
      finish(t, std::move(out));
      return;
    case SessionManager::Acquire::kOk:
      break;
  }

  const ModelSpec& spec = models_[t->req_.model];
  PrimerEngine engine(spec.weights, spec.variant, spec.profile, spec.seed,
                      circuits_[t->req_.model]);
  SessionOptions opts;
  opts.store = lease.store;
  opts.session_id = t->req_.client_id;
  opts.faults = t->req_.faults;
  opts.phase_deadline_s = cfg_.phase_deadline_s;
  opts.cancel = &t->cancel_;
  opts.drain = &drain_flag_;
  try {
    out.result = engine.run_resilient(t->req_.tokens, std::move(opts),
                                      cfg_.max_restarts);
    out.status = SessionStatus::kCompleted;
    out.restarts = out.result.restarts;
    out.checkpoint_epoch = out.result.checkpoints;
  } catch (const SessionDrained& e) {
    out.status = SessionStatus::kDrained;
    out.checkpoint_epoch = e.epoch();
    out.error = e.what();
  } catch (const OperationCancelled& e) {
    // Only drain() cancels a session: it was force-cancelled at the drain
    // deadline before reaching a checkpoint boundary.
    out.status = SessionStatus::kDrained;
    out.error = e.what();
  } catch (const ProtocolError& e) {
    out.error_kind = e.kind();
    out.error = e.what();
    if (e.retryable()) {
      out.status = SessionStatus::kFailed;  // restart budget spent
    } else {
      // Structurally hostile traffic or forked checkpoint history: no
      // retry can fix this client.  Poison it — cached keys included.
      out.status = SessionStatus::kPoisoned;
      sessions_.quarantine(t->req_.client_id, e.what());
    }
  } catch (const std::exception& e) {
    out.status = SessionStatus::kFailed;
    out.error = e.what();
  }
  // A session that did not complete reports what its last attempt got to:
  // the restarts consumed and the last epoch it persisted (resume point).
  const PrimerRunResult* partial = engine.last_partial();
  if (out.status != SessionStatus::kCompleted && partial != nullptr) {
    out.restarts = partial->restarts;
    if (out.checkpoint_epoch == 0) out.checkpoint_epoch = partial->checkpoints;
  }
  sessions_.release(t->req_.client_id);
  out.service_s = service.seconds();
  finish(t, std::move(out));
}

void PrimerServer::finish(const std::shared_ptr<SessionTicket>& t,
                          SessionOutcome out) {
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    switch (out.status) {
      case SessionStatus::kCompleted:
        ++counters_.completed;
        latencies_s_.push_back(out.wait_s + out.service_s);
        break;
      case SessionStatus::kShed: ++counters_.shed; break;
      case SessionStatus::kRejected: ++counters_.rejected; break;
      case SessionStatus::kDrained: ++counters_.drained; break;
      case SessionStatus::kFailed: ++counters_.failed; break;
      case SessionStatus::kPoisoned: ++counters_.poisoned; break;
    }
  }
  {
    std::lock_guard<std::mutex> lk(t->mu_);
    t->outcome_ = std::move(out);
    t->done_ = true;
  }
  t->cv_.notify_all();
}

ServerStats PrimerServer::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = counters_;
    if (!latencies_s_.empty()) {
      std::vector<double> v = latencies_s_;
      std::sort(v.begin(), v.end());
      s.p50_latency_s = v[v.size() / 2];
      s.p99_latency_s = v[std::min(v.size() - 1, (v.size() * 99) / 100)];
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.queue_depth = queue_.size();
    s.in_flight = running_.size();
  }
  s.sessions = sessions_.stats();
  return s;
}

DrainReport PrimerServer::drain(double deadline_s) {
  if (deadline_s < 0) deadline_s = cfg_.drain_deadline_s;
  DrainReport report;
  Stopwatch sw;
  ServerStats before = stats();
  drain_flag_.store(true, std::memory_order_seq_cst);

  // Shed everything still queued: those sessions never started, so there
  // is nothing to checkpoint — refuse them with a typed outcome.
  std::deque<std::shared_ptr<SessionTicket>> queued;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queued.swap(queue_);
  }
  for (const auto& t : queued) {
    SessionOutcome out;
    out.client_id = t->req_.client_id;
    out.status = SessionStatus::kShed;
    out.error = "server draining";
    out.wait_s = t->queued_.seconds();
    finish(t, std::move(out));
    ++report.shed_queued;
  }

  // In-flight sessions stop at their next checkpoint boundary
  // (SessionDrained); give them the deadline to get there.
  {
    std::unique_lock<std::mutex> lk(mu_);
    report.met_deadline = idle_cv_.wait_for(
        lk, std::chrono::duration<double>(deadline_s),
        [&] { return running_.empty(); });
    if (!report.met_deadline) {
      // Past the deadline: force-cancel the stragglers.  They resolve as
      // kDrained at their next poll point (frame/step/chunk granularity).
      for (const auto& t : running_) {
        ++report.forced;
        t->cancel_.cancel("drain deadline (" + std::to_string(deadline_s) +
                          "s) expired");
      }
      idle_cv_.wait(lk, [&] { return running_.empty(); });
    }
  }

  const ServerStats after = stats();
  report.drained_running = after.drained - before.drained;
  report.completed_during = after.completed - before.completed;
  report.duration_s = sw.seconds();
  return report;
}

}  // namespace primer
