// Serving-runtime tests: multi-tenant correctness under concurrent load,
// per-session fault isolation (kill / stall / hostile corruption / a
// restart budget spent), typed admission-control shedding, per-client
// key-cache amortization, quarantine, and graceful drain.
//
// ServingChaos.Soak is the env-gated cell tools/server_chaos_soak.py
// drives: dozens of concurrent tenants with per-session fault scripts,
// asserting faulted sessions resolve to typed outcomes, unfaulted sessions
// stay bit-identical to the plaintext reference, and the server drains
// cleanly after.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nn/model.h"
#include "nn/train.h"
#include "serving/server.h"

namespace primer {
namespace {

const std::vector<std::size_t> kTokens = {3, 17, 9, 28};
const std::vector<std::size_t> kTokensAlt = {1, 2, 4, 8};

// Shared quantized nano model + its plaintext fixed-point reference, built
// once.  kF / kFP sessions must match this bit for bit.
struct Fixture {
  BertWeightsI weights;
  std::vector<std::int64_t> ref;      // FixedBert(kTokens)
  std::vector<std::int64_t> ref_alt;  // FixedBert(kTokensAlt)
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Rng rng(2025);
    Fixture x{quantize(BertWeightsD::random(bert_nano(), rng)), {}, {}};
    x.ref = FixedBert(x.weights).forward(kTokens);
    x.ref_alt = FixedBert(x.weights).forward(kTokensAlt);
    return x;
  }();
  return f;
}

ModelSpec nano_spec(PrimerVariant v = PrimerVariant::kFP) {
  ModelSpec spec;
  spec.weights = fixture().weights;
  spec.variant = v;
  return spec;
}

InferenceRequest request(std::uint64_t client,
                         std::vector<std::size_t> tokens = kTokens) {
  InferenceRequest req;
  req.client_id = client;
  req.tokens = std::move(tokens);
  return req;
}

// --- multi-tenant correctness ------------------------------------------------

TEST(Serving, ConcurrentSessionsBitIdenticalToReference) {
  ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_queue = 16;
  PrimerServer server({nano_spec()}, cfg);

  std::vector<std::shared_ptr<SessionTicket>> tickets;
  for (std::uint64_t c = 1; c <= 6; ++c) {
    tickets.push_back(server.submit(request(c)));
  }
  for (const auto& t : tickets) {
    const SessionOutcome out = t->wait();
    ASSERT_EQ(out.status, SessionStatus::kCompleted) << out.error;
    EXPECT_EQ(out.result.logits, fixture().ref);
    EXPECT_EQ(out.restarts, 0);
    EXPECT_GT(out.result.checkpoints, 0u);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, 6u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_GT(s.p50_latency_s, 0.0);
  EXPECT_GE(s.p99_latency_s, s.p50_latency_s);
}

TEST(Serving, RejectsMalformedRequests) {
  PrimerServer server({nano_spec()});
  EXPECT_THROW(server.submit(request(0)), std::invalid_argument);
  InferenceRequest bad = request(1);
  bad.model = 7;
  EXPECT_THROW(server.submit(std::move(bad)), std::invalid_argument);
}

// --- per-session fault isolation ---------------------------------------------

TEST(Serving, FaultedSessionsFailAloneWithTypedOutcomes) {
  ServerConfig cfg;
  cfg.workers = 3;
  cfg.max_queue = 16;
  cfg.phase_deadline_s = 60.0;  // sim-second budget the injected stall trips
  cfg.max_restarts = 3;
  PrimerServer server({nano_spec()}, cfg);

  // Tenant 1: peer killed mid-run -> retryable -> resumed, bit-identical.
  InferenceRequest killed = request(1);
  killed.faults.kill_after = 40;
  // Tenant 2: 300 sim-second stall against the 60 s phase budget ->
  // DeadlineExceeded -> retryable -> resumed.
  InferenceRequest stalled = request(2);
  stalled.faults.stall_after = 25;
  stalled.faults.stall_s = 300.0;
  // Tenant 3: hostile peer — checksum-valid but structurally corrupt key
  // manifest (frame 3 = first post-handshake frame) -> fatal kMalformed ->
  // poisoned + quarantined.
  InferenceRequest hostile = request(3);
  hostile.faults.hostile_after = 3;
  // Tenant 6: every frame of every attempt is damaged -> retryable each
  // time -> the restart budget runs out -> failed, but not quarantined.
  InferenceRequest damaged = request(6);
  damaged.faults.bitflip = 1.0;

  auto t1 = server.submit(std::move(killed));
  auto t2 = server.submit(std::move(stalled));
  auto t3 = server.submit(std::move(hostile));
  auto t4 = server.submit(request(4));
  auto t5 = server.submit(request(5));
  auto t6 = server.submit(std::move(damaged));

  const SessionOutcome o1 = t1->wait();
  ASSERT_EQ(o1.status, SessionStatus::kCompleted) << o1.error;
  EXPECT_EQ(o1.result.logits, fixture().ref);
  EXPECT_GE(o1.restarts, 1);
  // (Whether the restart resumed from epoch >= 1 depends on where frame 40
  // falls relative to the first checkpoint; bit-identity is the contract.)

  const SessionOutcome o2 = t2->wait();
  ASSERT_EQ(o2.status, SessionStatus::kCompleted) << o2.error;
  EXPECT_EQ(o2.result.logits, fixture().ref);
  EXPECT_GE(o2.restarts, 1);

  const SessionOutcome o3 = t3->wait();
  ASSERT_EQ(o3.status, SessionStatus::kPoisoned) << o3.error;
  ASSERT_TRUE(o3.error_kind.has_value());
  EXPECT_EQ(*o3.error_kind, ProtocolErrorKind::kMalformed) << o3.error;
  EXPECT_TRUE(server.sessions().is_quarantined(3));

  const SessionOutcome o6 = t6->wait();
  ASSERT_EQ(o6.status, SessionStatus::kFailed) << o6.error;
  ASSERT_TRUE(o6.error_kind.has_value());
  EXPECT_TRUE(protocol_error_retryable(*o6.error_kind)) << o6.error;
  EXPECT_EQ(o6.restarts, cfg.max_restarts);
  EXPECT_FALSE(server.sessions().is_quarantined(6));

  // The faulted tenants never touched the clean ones.
  for (auto& t : {t4, t5}) {
    const SessionOutcome o = t->wait();
    ASSERT_EQ(o.status, SessionStatus::kCompleted) << o.error;
    EXPECT_EQ(o.result.logits, fixture().ref);
    EXPECT_EQ(o.restarts, 0);
  }

  // A quarantined client is refused (typed outcome)...
  const SessionOutcome again = server.infer(request(3));
  EXPECT_EQ(again.status, SessionStatus::kRejected);
  EXPECT_NE(again.error.find("quarantined"), std::string::npos);
  // ...and its poisoned key/checkpoint cache was dropped.
  EXPECT_EQ(server.sessions().stats().quarantined, 1u);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.poisoned, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.rejected, 1u);
}

// --- admission control -------------------------------------------------------

TEST(Serving, SaturatedServerShedsTyped) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 1;
  PrimerServer server({nano_spec()}, cfg);

  // Burst of 6 submits against 1 worker + 1 queue slot: at most 2 admitted
  // immediately; the rest must shed with a typed retryable error, and the
  // queue must never grow past its cap.
  std::vector<std::shared_ptr<SessionTicket>> admitted;
  std::size_t shed = 0;
  for (std::uint64_t c = 1; c <= 6; ++c) {
    try {
      admitted.push_back(server.submit(request(c)));
    } catch (const ServerOverloaded& e) {
      ++shed;
      EXPECT_TRUE(e.retryable());
      EXPECT_EQ(e.kind(), ProtocolErrorKind::kServerOverloaded);
      EXPECT_LE(e.queue_depth(), cfg.max_queue);
    }
    EXPECT_LE(server.stats().queue_depth, cfg.max_queue);
  }
  ASSERT_GE(shed, 4u);  // 6 submits, at most queue+running admissible at once
  for (const auto& t : admitted) {
    const SessionOutcome o = t->wait();
    ASSERT_EQ(o.status, SessionStatus::kCompleted) << o.error;
    EXPECT_EQ(o.result.logits, fixture().ref);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.shed, shed);
  EXPECT_EQ(s.completed, admitted.size());

  // A shed client is not poisoned: resubmitting once load clears succeeds.
  const SessionOutcome retry = server.infer(request(1));
  EXPECT_EQ(retry.status, SessionStatus::kCompleted) << retry.error;
}

// --- per-client key-cache amortization ---------------------------------------

TEST(Serving, ReconnectingClientReplaysKeysAtZeroWireCost) {
  ServerConfig cfg;
  cfg.workers = 1;
  PrimerServer server({nano_spec()}, cfg);

  const SessionOutcome first = server.infer(request(9));
  ASSERT_EQ(first.status, SessionStatus::kCompleted) << first.error;
  EXPECT_EQ(first.result.resumed_epoch, 0u);

  // Same client, same request: the resume handshake finds the cached
  // checkpoints and replays the whole prefix — key transfer included —
  // without re-paying the wire.
  const SessionOutcome second = server.infer(request(9));
  ASSERT_EQ(second.status, SessionStatus::kCompleted) << second.error;
  EXPECT_EQ(second.result.logits, fixture().ref);
  EXPECT_GT(second.result.resumed_epoch, 0u);
  EXPECT_GT(second.result.replayed_frames, 0u);
  EXPECT_GT(second.result.replayed_bytes, 0u);
  EXPECT_LT(second.result.total_bytes, first.result.total_bytes / 4)
      << "reconnect should amortize the multi-MB key transfer";
  EXPECT_GE(server.sessions().stats().resumable_hits, 1u);

  // Different tokens = different protocol: the cache must reset, not
  // resume against a journal describing another run.
  const SessionOutcome third = server.infer(request(9, kTokensAlt));
  ASSERT_EQ(third.status, SessionStatus::kCompleted) << third.error;
  EXPECT_EQ(third.result.logits, fixture().ref_alt);
  EXPECT_EQ(third.result.resumed_epoch, 0u);
  EXPECT_GE(server.sessions().stats().resets, 1u);
}

TEST(Serving, DurableStoreSurvivesServerRestart) {
  char tmpl[] = "primer_serving_store_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.store_dir = root;
  std::uint64_t first_bytes = 0;
  {
    PrimerServer server({nano_spec()}, cfg);
    EXPECT_TRUE(server.sessions().durable());
    const SessionOutcome first = server.infer(request(9));
    ASSERT_EQ(first.status, SessionStatus::kCompleted) << first.error;
    EXPECT_EQ(first.result.logits, fixture().ref);
    // The checkpoints genuinely hit the disk, and the cost is visible.
    EXPECT_GT(first.result.store_bytes_written, 0u);
    EXPECT_GT(first.result.store_fsyncs, 0u);
    EXPECT_EQ(first.result.store_degradations, 0u);
    first_bytes = first.result.total_bytes;
    const ServerStats s = server.stats();
    EXPECT_GT(s.sessions.store_bytes_written, 0u);
    EXPECT_GT(s.sessions.store_fsyncs, 0u);
  }
  // A brand-new server over the same root — the restarted process — must
  // re-adopt the client from disk, so its next request replays the cached
  // key material at zero wire cost instead of re-paying the transfer.
  PrimerServer server({nano_spec()}, cfg);
  EXPECT_GE(server.stats().sessions.recovered_clients, 1u);
  const SessionOutcome again = server.infer(request(9));
  ASSERT_EQ(again.status, SessionStatus::kCompleted) << again.error;
  EXPECT_EQ(again.result.logits, fixture().ref);
  EXPECT_GT(again.result.resumed_epoch, 0u);
  EXPECT_GT(again.result.replayed_bytes, 0u);
  EXPECT_LT(again.result.total_bytes, first_bytes / 4)
      << "restart should not re-pay the multi-MB key transfer";
  EXPECT_GE(server.stats().sessions.resumable_hits, 1u);

  // Scratch cleanup (test-local; the store itself never deletes the root).
  const std::string cmd = "rm -rf " + root;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// --- graceful drain ----------------------------------------------------------

TEST(Serving, GracefulDrainCheckpointsInFlightWithinDeadline) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_queue = 8;
  PrimerServer server({nano_spec()}, cfg);

  std::vector<std::shared_ptr<SessionTicket>> tickets;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    tickets.push_back(server.submit(request(c)));
  }
  // Give the workers a moment to pull in-flight sessions, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const DrainReport report = server.drain(/*deadline_s=*/30.0);

  EXPECT_TRUE(report.met_deadline);
  EXPECT_EQ(report.forced, 0u);
  EXPECT_LT(report.duration_s, 30.0);
  EXPECT_GT(report.shed_queued + report.drained_running +
                report.completed_during,
            0u);

  std::size_t drained = 0, completed = 0, shed = 0;
  for (const auto& t : tickets) {
    const SessionOutcome o = t->wait();
    switch (o.status) {
      case SessionStatus::kDrained:
        ++drained;
        // Stopped at a phase boundary with the checkpoint persisted: a
        // later request from this client resumes exactly there.
        EXPECT_GT(o.checkpoint_epoch, 0u) << o.error;
        break;
      case SessionStatus::kCompleted:
        ++completed;
        EXPECT_EQ(o.result.logits, fixture().ref);
        break;
      case SessionStatus::kShed:
        ++shed;
        EXPECT_NE(o.error.find("draining"), std::string::npos);
        break;
      default:
        FAIL() << "unexpected outcome " << session_status_name(o.status)
               << ": " << o.error;
    }
  }
  EXPECT_EQ(drained + completed + shed, 5u);
  EXPECT_EQ(report.shed_queued, shed);

  // Drained server admits nothing, typed.
  EXPECT_TRUE(server.draining());
  try {
    (void)server.submit(request(7));
    FAIL() << "expected ServerOverloaded";
  } catch (const ServerOverloaded& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("draining"), std::string::npos);
  }
}

// --- chaos soak cell (tools/server_chaos_soak.py) ----------------------------

std::uint64_t env_u64_or(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

TEST(ServingChaos, Soak) {
  if (std::getenv("PRIMER_SERVER_SOAK") == nullptr) {
    GTEST_SKIP() << "set PRIMER_SERVER_SOAK=1 (tools/server_chaos_soak.py)";
  }
  const std::uint64_t seed = env_u64_or("PRIMER_SERVER_SOAK_SEED", 1);
  const std::uint64_t n = env_u64_or("PRIMER_SERVER_SOAK_SESSIONS", 24);
  ServerConfig cfg;
  cfg.workers = env_u64_or("PRIMER_SERVER_SOAK_WORKERS", 4);
  cfg.max_queue = n;  // admission is not under test here; isolation is
  cfg.phase_deadline_s = 60.0;
  cfg.max_restarts = 3;
  // Optionally durable: the soak harness points this at a scratch root to
  // run the whole chaos matrix against real on-disk stores.
  if (const char* sd = std::getenv("PRIMER_SERVING_STORE_DIR")) {
    cfg.store_dir = sd;
  }
  PrimerServer server({nano_spec(PrimerVariant::kFP),
                       nano_spec(PrimerVariant::kF)},
                      cfg);

  // Per-session fault script from one seeded Rng: ~half clean, the rest
  // split across kill / sim-stall / hostile corruption at a random frame.
  Rng rng(seed);
  struct Case {
    std::shared_ptr<SessionTicket> ticket;
    int fault;  // 0 none, 1 kill, 2 stall, 3 hostile
  };
  std::vector<Case> cases;
  std::uint64_t injected = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    InferenceRequest req = request(i + 1);
    req.model = i % 2;
    const int fault = static_cast<int>(rng.uniform(8));  // 0..7
    const std::uint64_t frame = 3 + rng.uniform(60);
    int kind = 0;
    if (fault == 1 || fault == 2) {
      req.faults.kill_after = frame;
      kind = 1;
    } else if (fault == 3 || fault == 4) {
      req.faults.stall_after = frame;
      req.faults.stall_s = 300.0;
      kind = 2;
    } else if (fault == 5) {
      req.faults.hostile_after = 3;  // first post-handshake frame
      kind = 3;
    }
    if (kind != 0) ++injected;
    cases.push_back({server.submit(std::move(req)), kind});
  }

  std::uint64_t completed = 0, poisoned = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SessionOutcome o = cases[i].ticket->wait();
    // kF and kFP share the same bit-exact fixed-point reference.
    const auto& ref = fixture().ref;
    if (cases[i].fault == 3) {
      ASSERT_EQ(o.status, SessionStatus::kPoisoned)
          << "case " << i << ": " << o.error;
      ASSERT_TRUE(o.error_kind.has_value());
      EXPECT_FALSE(protocol_error_retryable(*o.error_kind));
      ++poisoned;
      continue;
    }
    // Clean, killed and stalled sessions must all complete bit-identical —
    // faults are retryable and scoped to their own session.
    ASSERT_EQ(o.status, SessionStatus::kCompleted)
        << "case " << i << " (fault " << cases[i].fault << "): " << o.error;
    ASSERT_EQ(o.result.logits, ref) << "case " << i;
    if (cases[i].fault != 0) {
      EXPECT_GE(o.restarts, 1) << "case " << i;
    }
    ++completed;
  }

  const DrainReport drain = server.drain(30.0);
  EXPECT_TRUE(drain.met_deadline);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.poisoned, poisoned);

  // Machine-readable summary for the soak harness.
  std::printf(
      "SERVERSOAK {\"seed\":%llu,\"sessions\":%llu,\"injected\":%llu,"
      "\"completed\":%llu,\"poisoned\":%llu,"
      "\"p50_s\":%.3f,\"p99_s\":%.3f}\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(injected),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(poisoned), s.p50_latency_s,
      s.p99_latency_s);
}

}  // namespace
}  // namespace primer
