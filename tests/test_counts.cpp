// Exact transcript counters of the three benchmark shapes, and of the two
// variants no benchmark runs (Primer-base and Primer-F).
//
// Wire bytes, flights, frames, HE operation counts and garbled-circuit sizes
// depend neither on the host, the thread count, the kernel tier nor the
// tokens, so every one is pinned to an exact value here.  The last column is
// the smallest noise budget the client's decryptions measured
// (min_noise_margin_bits).  It may depend on the query (both token sets below
// measure the same value), but it is deterministic, so it is pinned to 0.01
// bits.  A change that moves a count or spends budget must edit its row
// below, which puts the move in review.  Each single-client shape runs two
// queries on one engine, as the benchmark does: the first ships the client's
// keys, the second sends none.  The serving shape sends one client's query,
// the same query again, and a new one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/model.h"
#include "proto/primer.h"
#include "serving/server.h"

namespace primer {
namespace {

struct Counts {
  std::uint64_t bytes, rounds, online_rounds, frames;
  std::uint64_t rotations, plain_mults, ct_mults;
  std::uint64_t and_gates, table_bytes;
  double margin_bits;
};

// BERT-nano, Primer-FP, kProd8192 (the nano-prod-fp shape).
constexpr Counts kNanoProdFp[] = {
    {111110078, 102, 84, 219, 140, 427, 0, 442447, 14158304, 24.10},
    {32067056, 102, 84, 184, 140, 427, 0, 442447, 14158304, 24.10},
};
// 2-block BERT-nano, Primer-FPC, kProto2048 (the nano2-proto-fpc shape).
constexpr Counts kNano2ProtoFpc[] = {
    {62737325, 190, 160, 374, 330, 1088, 0, 758711, 24278752, 18.63},
    {35891375, 190, 160, 327, 330, 1088, 0, 758711, 24278752, 18.63},
};

// BERT-nano, Primer-base, kProto2048: every step online, key transfer too.
constexpr Counts kNanoProtoBase[] = {
    {52998377, 92, 92, 225, 1248, 1655, 96, 429151, 13732832, 18.32},
    {33822687, 92, 92, 191, 1248, 1655, 96, 429151, 13732832, 18.32},
};
// BERT-nano, Primer-F, kProto2048.
constexpr Counts kNanoProtoF[] = {
    {44148349, 102, 84, 225, 538, 1391, 0, 429151, 13732832, 18.72},
    {20842519, 102, 84, 184, 538, 1391, 0, 429151, 13732832, 18.72},
};

// The session's one OT setup (128 base OTs, 96 B each, in one frame each
// way) is a step of its own: offline, or online under Primer-base.  It runs
// just before the first garbled table, so it takes two flights of its own,
// or one when its client frame rides the key transfer's flight.
constexpr std::uint64_t kOtSetupBytes = 12336;

Counts counts_of(const PrimerRunResult& r) {
  const PhaseCost online = r.costs.phase_total("online");
  PhaseCost he = r.costs.phase_total("offline");
  he += online;
  return {r.total_bytes,   r.rounds,        online.rounds,
          r.frames_sent,   he.he_rotations, he.he_mults,
          he.he_ct_mults,  r.gc_and_gates,  r.gc_table_bytes,
          r.min_noise_margin_bits};
}

void expect_counts(const BertConfig& cfg, PrimerVariant variant,
                   HeProfile profile, const Counts (&want)[2]) {
  Rng weight_rng(2026);
  PrimerEngine engine(quantize(BertWeightsD::random(cfg, weight_rng)),
                      variant, profile, /*seed=*/7);
  const std::vector<std::vector<std::size_t>> queries = {{3, 17, 9, 28},
                                                         {30, 0, 12, 5}};
  for (std::size_t run = 0; run < queries.size(); ++run) {
    SCOPED_TRACE(cfg.name + " run " + std::to_string(run + 1));
    const PrimerRunResult r = engine.run(queries[run]);
    const Counts got = counts_of(r);
    const Counts& w = want[run];
    EXPECT_EQ(got.bytes, w.bytes);
    EXPECT_EQ(got.rounds, w.rounds);
    EXPECT_EQ(got.online_rounds, w.online_rounds);
    EXPECT_EQ(got.frames, w.frames);
    EXPECT_EQ(got.rotations, w.rotations);
    EXPECT_EQ(got.plain_mults, w.plain_mults);
    EXPECT_EQ(got.ct_mults, w.ct_mults);
    EXPECT_EQ(got.and_gates, w.and_gates);
    EXPECT_EQ(got.table_bytes, w.table_bytes);
    EXPECT_NEAR(got.margin_bits, w.margin_bits, 0.01);
    const PhaseCost& ot = r.costs.all()
                              .at(variant == PrimerVariant::kBase ? "online"
                                                                  : "offline")
                              .at("ot_setup");
    EXPECT_EQ(ot.bytes_sent, kOtSetupBytes);
    EXPECT_EQ(ot.rounds, run == 0 ? 1u : 2u);
  }
}

// Per-request telemetry of the serving shape, beyond the wire counts.
struct ServeCounts {
  std::uint64_t bytes, rounds, online_rounds, frames;
  std::uint64_t replayed_frames, replayed_bytes, handshake_bytes;
  std::uint32_t resumed_epoch;
  double margin_bits;
};

// PrimerServer (1 worker, in-memory store) over BERT-nano, Primer-FP,
// kProto2048 (the serve-mixed shape).  Each server session builds its own
// engine, so both fresh requests ship the keys; the repeat resumes at the
// last checkpoint and replays every frame before it at zero wire cost.
constexpr ServeCounts kServeMixed[] = {
    {40608305, 104, 84, 221, 0, 0, 76, 0, 19.20},
    {13292, 4, 2, 221, 216, 40595053, 116, 5, 19.20},
    {40608305, 104, 84, 221, 0, 0, 76, 0, 19.20},
};

TEST(TranscriptCounts, NanoProdFp) {
  expect_counts(bert_nano(), PrimerVariant::kFP, HeProfile::kProd8192,
                kNanoProdFp);
}

TEST(TranscriptCounts, TwoBlockNanoProtoFpc) {
  BertConfig cfg = bert_nano();
  cfg.name = "BERT-nano-2blk";
  cfg.blocks = 2;
  expect_counts(cfg, PrimerVariant::kFPC, HeProfile::kProto2048,
                kNano2ProtoFpc);
}

TEST(TranscriptCounts, NanoProtoBase) {
  expect_counts(bert_nano(), PrimerVariant::kBase, HeProfile::kProto2048,
                kNanoProtoBase);
}

TEST(TranscriptCounts, NanoProtoF) {
  expect_counts(bert_nano(), PrimerVariant::kF, HeProfile::kProto2048,
                kNanoProtoF);
}

TEST(TranscriptCounts, ServeMixedShape) {
  Rng weight_rng(2026);
  ModelSpec spec;
  spec.weights = quantize(BertWeightsD::random(bert_nano(), weight_rng));
  spec.variant = PrimerVariant::kFP;
  spec.profile = HeProfile::kProto2048;
  spec.seed = 7;
  ServerConfig cfg;
  cfg.workers = 1;
  PrimerServer server({spec}, cfg);
  const std::vector<std::vector<std::size_t>> queries = {
      {3, 17, 9, 28}, {3, 17, 9, 28}, {30, 0, 12, 5}};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i + 1));
    InferenceRequest req;
    req.client_id = 1;
    req.tokens = queries[i];
    const SessionOutcome out = server.infer(std::move(req));
    ASSERT_EQ(out.status, SessionStatus::kCompleted) << out.error;
    const PrimerRunResult& r = out.result;
    const ServeCounts& w = kServeMixed[i];
    EXPECT_EQ(r.total_bytes, w.bytes);
    EXPECT_EQ(r.rounds, w.rounds);
    EXPECT_EQ(r.costs.phase_total("online").rounds, w.online_rounds);
    EXPECT_EQ(r.frames_sent, w.frames);
    EXPECT_EQ(r.replayed_frames, w.replayed_frames);
    EXPECT_EQ(r.replayed_bytes, w.replayed_bytes);
    EXPECT_EQ(r.handshake_bytes, w.handshake_bytes);
    EXPECT_EQ(r.resumed_epoch, w.resumed_epoch);
    EXPECT_NEAR(r.min_noise_margin_bits, w.margin_bits, 0.01);
  }
}

}  // namespace
}  // namespace primer
