// PrimerEngine: live end-to-end private BERT inference between two
// simulated parties, in the paper's four ablation configurations:
//
//   kBase : Primer-base — hybrid HE+GC+SS, everything online (Table II r.1)
//   kF    : + HGS/FHGS offline offload (Table II row 2)
//   kFP   : + tokens-first packing (row 3)
//   kFPC  : + combined FHGS (CHGS) merging Embed/QKV/QxK (row 4)
//
// The engine runs real RLWE HE and real half-gates garbling over the
// byte-accounted channel, and reports per-step offline/online costs with the
// same step names as Table II: embed, qkv, qk, softmax, attnv, others.
//
// Protocol state between steps is the HGS invariant: for every activation X,
// the server holds D = X - R and the client holds the mask R (additive
// shares of X over Z_t).
#pragma once

#include <memory>
#include <vector>

#include "nn/model.h"
#include "proto/attention.h"
#include "proto/linear.h"
#include "proto/runtime.h"

namespace primer {

enum class PrimerVariant { kBase, kF, kFP, kFPC };

const char* variant_name(PrimerVariant v);

struct PrimerRunResult {
  std::vector<std::int64_t> logits;  // raw fixed point, revealed to client
  std::size_t predicted = 0;
  double offline_compute_s = 0;
  double offline_network_s = 0;
  double offline_cpu_s = 0;  // aggregate CPU across pool workers
  double online_compute_s = 0;
  double online_network_s = 0;
  double online_cpu_s = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t rounds = 0;
  // Smallest estimated noise budget any decryption ran with (+inf if
  // nothing was decrypted).
  double min_noise_margin_bits = 0;
  // GC nonlinear-layer totals across all stages of the run: AND gates
  // garbled, garble/eval compute split (wall + aggregate CPU), achieved
  // garbling throughput, and garbled-table traffic (streamed share via
  // kGcTableChunk frames).
  std::uint64_t gc_and_gates = 0;
  double gc_garble_s = 0;
  double gc_garble_cpu_s = 0;
  double gc_eval_s = 0;
  double gc_eval_cpu_s = 0;
  std::uint64_t gc_table_bytes = 0;
  std::uint64_t gc_streamed_table_bytes = 0;
  std::uint64_t gc_table_chunks = 0;
  // Session-resilience telemetry: restarts survived before this result was
  // produced, the checkpoint epoch the final attempt resumed from (0 =
  // fresh), frames/bytes satisfied by zero-cost checkpoint replay instead of
  // the wire, resume-handshake traffic, checkpoints persisted, total frames
  // sent by the final attempt, and wire bytes burned by failed attempts.
  int restarts = 0;
  std::uint32_t resumed_epoch = 0;
  std::uint64_t replayed_frames = 0;
  std::uint64_t replayed_bytes = 0;
  std::uint64_t handshake_bytes = 0;
  std::uint32_t checkpoints = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t prior_attempt_bytes = 0;
  // Durable-storage telemetry from the attached SessionStore (all zero for
  // in-memory stores or storeless runs): checkpoint bytes fsync'd to disk,
  // fsync count, persists that degraded to memory-only (ENOSPC/EIO), whether
  // the store ended the run degraded, and total checkpoint blob bytes held.
  std::uint64_t store_bytes_written = 0;
  std::uint64_t store_fsyncs = 0;
  std::uint64_t store_degradations = 0;
  bool store_degraded = false;
  std::uint64_t checkpoint_blob_bytes = 0;
  CostAccumulator costs;  // per step breakdown (Table II columns)

  double gc_garble_gates_per_s() const {
    return gc_garble_s > 0 ? static_cast<double>(gc_and_gates) / gc_garble_s
                           : 0.0;
  }
  double gc_eval_gates_per_s() const {
    return gc_eval_s > 0 ? static_cast<double>(gc_and_gates) / gc_eval_s : 0.0;
  }

  double offline_total_s() const { return offline_compute_s + offline_network_s; }
  double online_total_s() const { return online_compute_s + online_network_s; }
};

class PrimerEngine {
 public:
  // Weights must use power-of-two tokens/d_model/head_dim (nano/micro
  // configs); kProto2048 is the intended live profile.
  PrimerEngine(BertWeightsI weights, PrimerVariant variant,
               HeProfile profile = HeProfile::kProto2048,
               std::uint64_t seed = 7);

  // One private inference (offline + online, separately accounted).
  PrimerRunResult run(const std::vector<std::size_t>& tokens);

  // One private inference with session resilience: checkpoints are persisted
  // into `store` at phase boundaries, and on a retryable transport failure
  // (damaged or missing frame, peer kill, deadline, cancellation) the
  // protocol is re-attempted — resuming from the last common checkpoint via
  // the kSessionHello/kSessionResume handshake, with the checkpoint-covered
  // frame prefix replayed at zero wire cost.  Fatal errors and attempts
  // beyond `max_restarts` rethrow; each restart applies
  // FaultSpec::prepare_restart (one-shot triggers fire only on the first
  // attempt, random faults re-seed).  The result is bit-identical to an
  // unfaulted run().
  PrimerRunResult run_resilient(const std::vector<std::size_t>& tokens,
                                SessionStore& store, int max_restarts = 5);

  // One protocol attempt under caller-supplied session options (store,
  // faults, deadline, cancel token, progress heartbeat, drain flag).  No
  // internal retry loop: every failure — including retryable transport
  // errors, OperationCancelled and SessionDrained — propagates to the
  // caller, which owns the attempt/restart policy.  The serving runtime
  // (src/serving/) builds its per-session loop on this.
  PrimerRunResult run_with_options(const std::vector<std::size_t>& tokens,
                                   const SessionOptions& options);

  // Telemetry from the most recent failed attempt (costs accrued before the
  // fault, min noise margin observed); null until a run throws.
  const PrimerRunResult* last_partial() const { return last_partial_.get(); }

  const BertWeightsI& weights() const { return w_; }
  PrimerVariant variant() const { return variant_; }

 private:
  // One protocol attempt under explicit session options.  Fills
  // last_partial_ and rethrows on failure.
  PrimerRunResult run_session(const std::vector<std::size_t>& tokens,
                              const SessionOptions& options);
  // The protocol body proper, over an already-constructed context.
  PrimerRunResult run_protocol(const std::vector<std::size_t>& tokens,
                               ProtocolContext& pc);

  PackingStrategy linear_packing() const {
    return (variant_ == PrimerVariant::kBase || variant_ == PrimerVariant::kF)
               ? PackingStrategy::kFeatureBased
               : PackingStrategy::kTokensFirst;
  }
  bool offline_offload() const { return variant_ != PrimerVariant::kBase; }
  bool merged_qk() const { return variant_ == PrimerVariant::kFPC; }

  BertWeightsI w_;
  PrimerVariant variant_;
  HeProfile profile_;
  std::uint64_t seed_;
  std::unique_ptr<PrimerRunResult> last_partial_;
};

// Reference logits for the kFPC variant, whose merged Q*K^T skips the
// intermediate Q/K truncations (higher precision, slightly different
// rounding than FixedBert).  Tests compare the live kFPC run against this.
std::vector<std::int64_t> fixed_forward_chgs(const BertWeightsI& w,
                                             const std::vector<std::size_t>& tokens);

}  // namespace primer
