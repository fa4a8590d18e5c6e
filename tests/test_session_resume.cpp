// Session-resilience tests: checkpoint serialization, the resume handshake
// negotiation, the retryable/fatal error taxonomy, deterministic kill/stall
// injection, and — end to end — that a killed-and-restarted inference
// resumes from the last common checkpoint and produces logits bit-identical
// to an unfaulted run.
//
// SessionChaos.* are the cells tools/chaos_soak.py drives: the probe prints
// each checkpoint boundary's wire-frame index, and KillRecovery /
// StallRecovery re-run the inference with PRIMER_FAULT_* taken from the
// environment at the soak's chosen kill points.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "he/he.h"
#include "net/frame.h"
#include "net/session.h"
#include "nn/model.h"
#include "nn/train.h"
#include "proto/primer.h"
#include "proto/runtime.h"

namespace primer {
namespace {

struct EnvGuard {
  explicit EnvGuard(std::vector<std::pair<const char*, std::string>> kv)
      : keys_() {
    for (const auto& [k, v] : kv) {
      keys_.push_back(k);
      ::setenv(k, v.c_str(), 1);
    }
  }
  ~EnvGuard() {
    for (const char* k : keys_) ::unsetenv(k);
  }
  std::vector<const char*> keys_;
};

// --- checkpoint & store ------------------------------------------------------

SessionCheckpoint sample_checkpoint(std::uint32_t epoch) {
  SessionCheckpoint cp;
  cp.session_id = 0xfeed;
  cp.epoch = epoch;
  cp.phase = "gc_offline";
  cp.params_hash = 0x1234abcd;
  cp.send_watermark[0] = 3;
  cp.send_watermark[1] = 2;
  cp.frame_crc[0] = {11, 22, 33};
  cp.frame_crc[1] = {44, 55};
  cp.kind_counts[0][static_cast<int>(MessageKind::kCiphertexts)] = 2;
  cp.kind_counts[1][static_cast<int>(MessageKind::kGcTableChunk)] = 7;
  cp.wire_bytes = 123456;
  return cp;
}

TEST(SessionCheckpoint, SerializeRoundTripAndStableDigest) {
  const SessionCheckpoint cp = sample_checkpoint(4);
  ByteWriter w;
  cp.serialize(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const SessionCheckpoint back = SessionCheckpoint::deserialize(r);
  EXPECT_EQ(back.session_id, cp.session_id);
  EXPECT_EQ(back.epoch, cp.epoch);
  EXPECT_EQ(back.phase, cp.phase);
  EXPECT_EQ(back.params_hash, cp.params_hash);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(back.send_watermark[d], cp.send_watermark[d]);
    EXPECT_EQ(back.frame_crc[d], cp.frame_crc[d]);
    for (std::size_t k = 0; k < kMessageKindCount; ++k) {
      EXPECT_EQ(back.kind_counts[d][k], cp.kind_counts[d][k]);
    }
  }
  EXPECT_EQ(back.wire_bytes, cp.wire_bytes);
  EXPECT_EQ(back.digest(), cp.digest());

  // A single-field change must move the digest.
  SessionCheckpoint other = cp;
  other.frame_crc[1][0] ^= 1;
  EXPECT_NE(other.digest(), cp.digest());
}

TEST(SessionCheckpoint, TruncatedOrInconsistentBlobIsMalformed) {
  const SessionCheckpoint cp = sample_checkpoint(1);
  ByteWriter w;
  cp.serialize(w);
  auto bytes = w.take();

  auto expect_malformed = [](const std::vector<std::uint8_t>& blob) {
    ByteReader r(blob);
    try {
      (void)SessionCheckpoint::deserialize(r);
      FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
    }
  };

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  expect_malformed(truncated);

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  expect_malformed(bad_magic);
}

TEST(SessionStore, SaveLoadDropTamper) {
  SessionStore store;
  EXPECT_EQ(store.latest_epoch(Party::kClient), 0u);
  store.save(Party::kClient, sample_checkpoint(1));
  store.save(Party::kClient, sample_checkpoint(2));
  store.save(Party::kServer, sample_checkpoint(1));
  EXPECT_EQ(store.latest_epoch(Party::kClient), 2u);
  EXPECT_EQ(store.latest_epoch(Party::kServer), 1u);
  EXPECT_GT(store.blob_bytes(), 0u);

  const auto cp = store.load(Party::kClient, 2);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->epoch, 2u);
  EXPECT_FALSE(store.load(Party::kClient, 9).has_value());

  const auto digests = store.digests(Party::kClient);
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0].first, 1u);
  EXPECT_EQ(digests[1].first, 2u);
  EXPECT_EQ(digests[1].second, sample_checkpoint(2).digest());

  // Tampered blob: the digest inventory changes, load reports the defect.
  store.tamper(Party::kServer, 1);
  EXPECT_NE(store.digests(Party::kServer)[0].second,
            sample_checkpoint(1).digest());

  store.drop(Party::kClient, 2);
  EXPECT_EQ(store.latest_epoch(Party::kClient), 1u);
  store.clear();
  EXPECT_EQ(store.latest_epoch(Party::kClient), 0u);
  EXPECT_EQ(store.blob_bytes(), 0u);
}

// --- handshake payloads & negotiation ---------------------------------------

TEST(SessionHandshake, HelloResumeRoundTripAndMalformed) {
  SessionHello h;
  h.session_id = 77;
  h.params_hash = 0xdeadbeefcafe;
  h.epochs = {{1, 100}, {2, 200}, {5, 500}};
  const SessionHello hb = SessionHello::deserialize(h.serialize(), "test");
  EXPECT_EQ(hb.session_id, h.session_id);
  EXPECT_EQ(hb.params_hash, h.params_hash);
  EXPECT_EQ(hb.epochs, h.epochs);

  SessionResume res;
  res.agreed_epoch = 5;
  res.digest = 500;
  const SessionResume rb = SessionResume::deserialize(res.serialize(), "test");
  EXPECT_EQ(rb.agreed_epoch, res.agreed_epoch);
  EXPECT_EQ(rb.digest, res.digest);

  // Non-ascending epochs are a malformed inventory.
  SessionHello bad = h;
  bad.epochs = {{2, 200}, {2, 201}};
  try {
    (void)SessionHello::deserialize(bad.serialize(), "test");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
  }

  // Trailing bytes are rejected.
  auto blob = h.serialize();
  blob.push_back(0);
  EXPECT_THROW((void)SessionHello::deserialize(blob, "test"), ProtocolError);
}

TEST(SessionHandshake, NegotiationPicksHighestCommonDigest) {
  SessionStore store;
  store.save(Party::kServer, sample_checkpoint(1));
  store.save(Party::kServer, sample_checkpoint(2));
  store.save(Party::kServer, sample_checkpoint(3));

  SessionHello hello;
  hello.session_id = 0xfeed;
  hello.params_hash = 0x1234abcd;

  // Fresh client: no epochs in common -> fresh start.
  EXPECT_EQ(negotiate_resume_epoch(hello, 0xfeed, 0x1234abcd, store,
                                   Party::kServer),
            0u);

  // Full inventory: highest epoch wins.
  hello.epochs = store.digests(Party::kServer);
  EXPECT_EQ(negotiate_resume_epoch(hello, 0xfeed, 0x1234abcd, store,
                                   Party::kServer),
            3u);

  // Server lost epoch 3 (partial disk loss): degrade to epoch 2.
  store.drop(Party::kServer, 3);
  EXPECT_EQ(negotiate_resume_epoch(hello, 0xfeed, 0x1234abcd, store,
                                   Party::kServer),
            2u);

  // Every common epoch's digest disagrees: forked histories are fatal.
  store.tamper(Party::kServer, 1);
  store.tamper(Party::kServer, 2);
  try {
    (void)negotiate_resume_epoch(hello, 0xfeed, 0x1234abcd, store,
                                 Party::kServer);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kResumeDiverged) << e.what();
    EXPECT_FALSE(e.retryable());
  }

  // Identity mismatches are rejections, not divergence.
  try {
    (void)negotiate_resume_epoch(hello, 0xbeef, 0x1234abcd, store,
                                 Party::kServer);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kResumeRejected) << e.what();
  }
  try {
    (void)negotiate_resume_epoch(hello, 0xfeed, 0x9999, store, Party::kServer);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kResumeRejected) << e.what();
  }
}

// --- error taxonomy ----------------------------------------------------------

TEST(ErrorTaxonomy, RetryableVersusFatal) {
  // Transient wire damage and timeouts are retryable...
  for (const ProtocolErrorKind k :
       {ProtocolErrorKind::kTruncated, ProtocolErrorKind::kChecksumMismatch,
        ProtocolErrorKind::kSequenceGap, ProtocolErrorKind::kPeerKilled,
        ProtocolErrorKind::kDeadlineExceeded,
        ProtocolErrorKind::kServerOverloaded}) {
    EXPECT_TRUE(protocol_error_retryable(k)) << protocol_error_kind_name(k);
  }
  // ...structural and identity defects are not.
  for (const ProtocolErrorKind k :
       {ProtocolErrorKind::kBadMagic, ProtocolErrorKind::kBadVersion,
        ProtocolErrorKind::kKindMismatch, ProtocolErrorKind::kMalformed,
        ProtocolErrorKind::kResumeRejected,
        ProtocolErrorKind::kResumeDiverged}) {
    EXPECT_FALSE(protocol_error_retryable(k)) << protocol_error_kind_name(k);
  }

  const DeadlineExceeded e("gc_offline", 12.5, 10.0, "test poll");
  EXPECT_EQ(e.kind(), ProtocolErrorKind::kDeadlineExceeded);
  EXPECT_TRUE(e.retryable());
  EXPECT_EQ(e.phase(), "gc_offline");
  EXPECT_DOUBLE_EQ(e.elapsed_s(), 12.5);
  EXPECT_DOUBLE_EQ(e.budget_s(), 10.0);
  EXPECT_NE(std::string(e.what()).find("gc_offline"), std::string::npos);
}

TEST(ErrorTaxonomy, CancelToken) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("early"));
  token.cancel("operator abort");
  token.cancel("second reason is ignored");
  EXPECT_TRUE(token.cancelled());
  try {
    token.check("poll site");
    FAIL() << "expected OperationCancelled";
  } catch (const OperationCancelled& e) {
    EXPECT_NE(std::string(e.what()).find("operator abort"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("poll site"), std::string::npos);
  }
}

// --- noise-floor knob --------------------------------------------------------

TEST(NoiseFloor, EnvKnobRaisesTheRefusalThreshold) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(31);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const auto ct = enc.encrypt(encoder.encode({1, 2, 3}));

  const Decryptor plain_dec(ctx, keygen.secret_key());
  EXPECT_DOUBLE_EQ(plain_dec.noise_floor_bits(), 0.0);
  EXPECT_NO_THROW((void)plain_dec.decrypt(ct));

  EnvGuard env(std::vector<std::pair<const char*, std::string>>{
      {"PRIMER_NOISE_FLOOR_BITS", "10000"}});
  const Decryptor strict_dec(ctx, keygen.secret_key());
  EXPECT_DOUBLE_EQ(strict_dec.noise_floor_bits(), 10000.0);
  try {
    (void)strict_dec.decrypt(ct);
    FAIL() << "expected NoiseBudgetExhausted";
  } catch (const NoiseBudgetExhausted& e) {
    EXPECT_GT(e.budget_bits(), 0.0);  // healthy ct, hostile floor
  }
}

// The floor is parsed like every other knob: a typo'd value must fail
// loudly instead of silently turning the guard band off or truncating it.
TEST(NoiseFloor, MalformedKnobIsRejected) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(31);
  KeyGenerator keygen(ctx, rng);
  for (const char* bad : {"abc", "5x", "nan"}) {
    EnvGuard env(std::vector<std::pair<const char*, std::string>>{
        {"PRIMER_NOISE_FLOOR_BITS", bad}});
    EXPECT_THROW({ const Decryptor dec(ctx, keygen.secret_key()); },
                 std::invalid_argument)
        << "PRIMER_NOISE_FLOOR_BITS=" << bad;
  }
}

// --- end-to-end kill / stall / resume ---------------------------------------

const std::vector<std::size_t> kTokens = {3, 17, 9, 28};

struct CleanRun {
  BertWeightsI weights;
  std::vector<std::int64_t> ref_logits;
  PrimerRunResult result;  // unfaulted resilient run, checkpoints on
};

// One shared unfaulted probe run (PrimerVariant::kFP, bert_nano).  Must be
// called only when no PRIMER_FAULT_* env is set.
const CleanRun& clean_run() {
  static const CleanRun cr = [] {
    Rng wrng(2025);
    CleanRun c{quantize(BertWeightsD::random(bert_nano(), wrng)), {}, {}};
    c.ref_logits = FixedBert(c.weights).forward(kTokens);
    PrimerEngine engine(c.weights, PrimerVariant::kFP);
    SessionStore store;
    c.result = engine.run_resilient(kTokens, store);
    return c;
  }();
  return cr;
}

TEST(SessionResilience, UnfaultedRunCheckpointsAndMatchesReference) {
  const CleanRun& c = clean_run();
  EXPECT_EQ(c.result.logits, c.ref_logits);
  EXPECT_EQ(c.result.restarts, 0);
  EXPECT_EQ(c.result.resumed_epoch, 0u);
  EXPECT_EQ(c.result.replayed_frames, 0u);
  // Checkpoints at key_transfer, gc_offline, linear_offline, online_embed
  // and one per block.
  EXPECT_GE(c.result.checkpoints, 5u);
  EXPECT_GT(c.result.handshake_bytes, 0u);
  EXPECT_GT(c.result.frames_sent, 0u);
}

TEST(SessionResilience, KillThenResumeBitIdentical) {
  const CleanRun& c = clean_run();
  // Kill mid-run: past several checkpoints, well before the finish line.
  const std::uint64_t kill_at = c.result.frames_sent / 2;
  EnvGuard env({{"PRIMER_FAULT_KILL_AFTER", std::to_string(kill_at)}});

  PrimerEngine engine(c.weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = engine.run_resilient(kTokens, store);

  // Bit-identical output despite the crash...
  EXPECT_EQ(result.logits, c.ref_logits);
  // ...after exactly one restart that resumed from a real checkpoint and
  // replayed the covered prefix without re-paying for it.
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.resumed_epoch, 1u);
  EXPECT_GT(result.replayed_frames, 0u);
  EXPECT_GT(result.replayed_bytes, 0u);
  EXPECT_GT(result.prior_attempt_bytes, 0u);

  // The failed attempt's partial telemetry was captured before the rethrow.
  ASSERT_NE(engine.last_partial(), nullptr);

  // The kill itself, run without the resilience loop, is a typed retryable
  // error naming the frame and the injection knob.
  PrimerEngine fragile(c.weights, PrimerVariant::kFP);
  try {
    (void)fragile.run(kTokens);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kPeerKilled);
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("PRIMER_FAULT_KILL_AFTER"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find(std::to_string(kill_at)),
              std::string::npos);
  }
}

// A restart re-executes from the start and replays the prefix its resume
// epoch covers.  It must not checkpoint the boundaries inside that prefix
// again: their journal would start past their own watermark, a blob no
// load accepts.  A kill near the end makes the prefix span every boundary.
TEST(SessionResilience, ReplayedBoundariesAreNotCheckpointedAgain) {
  const CleanRun& c = clean_run();
  EnvGuard env(
      {{"PRIMER_FAULT_KILL_AFTER", std::to_string(c.result.frames_sent - 2)}});
  PrimerEngine engine(c.weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = engine.run_resilient(kTokens, store);
  EXPECT_EQ(result.logits, c.ref_logits);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(result.resumed_epoch, c.result.checkpoints);
  for (const Party p : {Party::kClient, Party::kServer}) {
    for (const auto& entry : store.digests(p)) {
      EXPECT_NO_THROW((void)store.load(p, entry.first)) << entry.first;
    }
  }
}

// Keys count as installed only once a run returns: a kill inside run 1's
// key transfer restarts that run, which ships the keys again and finishes
// bit-identical; the next run on the engine sends no key material.
TEST(SessionResilience, KeysInstalledOnlyAfterSuccess) {
  const CleanRun& c = clean_run();
  PrimerEngine engine(c.weights, PrimerVariant::kFP);
  SessionStore store;
  // Wire frames 1-2 are the handshake; the key transfer follows: the
  // manifest, one frame per Galois key, then the relinearization key.
  const std::uint64_t kill_at = 5;
  PrimerRunResult first;
  {
    EnvGuard env({{"PRIMER_FAULT_KILL_AFTER", std::to_string(kill_at)}});
    first = engine.run_resilient(kTokens, store);
  }
  ASSERT_NE(engine.keys(), nullptr);
  const std::uint64_t key_frames = engine.keys()->gk.keys.size() + 2;
  ASSERT_LT(kill_at, 2 + key_frames);  // the kill landed inside the transfer
  EXPECT_EQ(first.logits, c.ref_logits);
  EXPECT_EQ(first.restarts, 1);
  EXPECT_EQ(first.resumed_epoch, 0u);  // no checkpoint before the keys
  EXPECT_GT(first.prior_attempt_bytes, 0u);
  // The restart re-shipped the whole key set: its transcript is an
  // unfaulted run's.
  EXPECT_EQ(first.frames_sent, c.result.frames_sent);
  EXPECT_EQ(first.total_bytes, c.result.total_bytes);
  EXPECT_TRUE(engine.keys()->installed());

  // Run 2's parameter fingerprint says "keys installed", so run 1's
  // epochs are dropped and it starts fresh, without any key frame.
  const PrimerRunResult next = engine.run_resilient(kTokens, store);
  EXPECT_EQ(next.logits, c.ref_logits);
  EXPECT_EQ(next.resumed_epoch, 0u);
  EXPECT_EQ(next.frames_sent, c.result.frames_sent - key_frames);
  const auto cp =
      store.load(Party::kClient, store.latest_epoch(Party::kClient));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->kind_counts[static_cast<int>(Party::kServer)]
                           [static_cast<std::size_t>(MessageKind::kKeyMaterial)],
            0u);
}

// A store written under another seed holds another transcript.  Both
// parties drop those epochs before the handshake, so the run starts fresh
// instead of replaying a foreign journal (which died with resume_diverged),
// and the next run with the same parameters replays its own epochs.
TEST(SessionResilience, EpochsOfOtherParametersAreDropped) {
  const CleanRun& c = clean_run();
  SessionStore store;
  auto engine = [&](std::uint64_t seed) {
    return PrimerEngine(c.weights, PrimerVariant::kFP, HeProfile::kProto2048,
                        seed);
  };
  (void)engine(7).run_resilient(kTokens, store);
  ASSERT_GT(store.latest_epoch(Party::kClient), 0u);

  const PrimerRunResult other = engine(8).run_resilient(kTokens, store);
  EXPECT_EQ(other.logits, c.ref_logits);
  EXPECT_EQ(other.restarts, 0);
  EXPECT_EQ(other.resumed_epoch, 0u);
  EXPECT_EQ(store.latest_epoch(Party::kClient), other.checkpoints);

  const PrimerRunResult again = engine(8).run_resilient(kTokens, store);
  EXPECT_EQ(again.logits, c.ref_logits);
  EXPECT_EQ(again.resumed_epoch, other.checkpoints);
  EXPECT_GT(again.replayed_bytes, 0u);
}

TEST(SessionResilience, StallTripsDeadlineThenResumes) {
  const CleanRun& c = clean_run();
  const std::uint64_t stall_at = c.result.frames_sent / 3;
  // A 300-simulated-second stall against a 60 s phase budget trips the
  // deadline deterministically at that exact frame, on any host speed.
  EnvGuard env({{"PRIMER_FAULT_STALL_AFTER", std::to_string(stall_at)},
                {"PRIMER_FAULT_STALL_S", "300"},
                {"PRIMER_PHASE_DEADLINE_S", "60"}});

  PrimerEngine fragile(c.weights, PrimerVariant::kFP);
  try {
    (void)fragile.run(kTokens);
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_GT(e.elapsed_s(), e.budget_s());
    EXPECT_NE(std::string(e.what()).find("stalled wire frame"),
              std::string::npos);
  }

  PrimerEngine engine(c.weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = engine.run_resilient(kTokens, store);
  EXPECT_EQ(result.logits, c.ref_logits);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_GE(result.resumed_epoch, 1u);
}

// --- chaos-soak cells --------------------------------------------------------

// Probe: print every checkpoint boundary's wire-frame index plus the total,
// so tools/chaos_soak.py can pick kill points spanning every phase.  Wire
// frame indices are 1-based and the two handshake frames precede seq 0.
TEST(SessionChaos, ProbeTotalFrames) {
  if (std::getenv("PRIMER_CHAOS_PROBE") == nullptr) {
    GTEST_SKIP() << "set PRIMER_CHAOS_PROBE=1 (tools/chaos_soak.py does)";
  }
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  PrimerEngine engine(weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = engine.run_resilient(kTokens, store);
  ASSERT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  for (std::uint32_t e = 1; e <= store.latest_epoch(Party::kClient); ++e) {
    const auto cp = store.load(Party::kClient, e);
    ASSERT_TRUE(cp.has_value());
    std::printf("CHAOS phase=%s end_frame=%llu\n", cp->phase.c_str(),
                2ull + cp->send_watermark[0] + cp->send_watermark[1]);
  }
  std::printf("CHAOS total_frames=%llu\n",
              static_cast<unsigned long long>(result.frames_sent));
}

// Soak cell: PRIMER_FAULT_KILL_AFTER is set by the harness; recovery must
// be bit-identical to the plaintext reference.
TEST(SessionChaos, KillRecovery) {
  if (std::getenv("PRIMER_FAULT_KILL_AFTER") == nullptr) {
    GTEST_SKIP() << "set PRIMER_FAULT_KILL_AFTER (tools/chaos_soak.py does)";
  }
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  PrimerEngine engine(weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = engine.run_resilient(kTokens, store);
  EXPECT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  EXPECT_EQ(result.restarts, 1);
}

// Soak cell: PRIMER_FAULT_STALL_AFTER / _STALL_S / PRIMER_PHASE_DEADLINE_S
// set by the harness; the stall must become a DeadlineExceeded restart, not
// a hang, and recovery must be bit-identical.
TEST(SessionChaos, StallRecovery) {
  if (std::getenv("PRIMER_FAULT_STALL_AFTER") == nullptr) {
    GTEST_SKIP() << "set PRIMER_FAULT_STALL_AFTER (tools/chaos_soak.py does)";
  }
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  PrimerEngine engine(weights, PrimerVariant::kFP);
  SessionStore store;
  const PrimerRunResult result = engine.run_resilient(kTokens, store);
  EXPECT_EQ(result.logits, FixedBert(weights).forward(kTokens));
  EXPECT_EQ(result.restarts, 1);
}

}  // namespace
}  // namespace primer
