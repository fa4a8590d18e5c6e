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
// One protocol schedule runs all four.  The variant picks the object behind
// each linear layer (LinearProtocol) and attention product
// (ProductProtocol), whether CHGS merges the scores, and whether the
// offline work is charged offline or, under Primer-base, online.
//
// Protocol state between steps is the HGS invariant: for every activation X,
// the server holds D = X - R and the client holds the mask R (a SharePair:
// additive shares of X over Z_t).
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

// Everything one model's protocol builds once per (weights, variant, HE
// profile), shared immutably by every inference on any thread: no garbled
// circuit and no weight encoding depends on the query.
//
// Circuits are public descriptions: each is fixed by the model's shape,
// its layer-norm constants, the variant and the plaintext modulus t, and
// every garbling draws its labels from the session's RNG.  Each distinct
// circuit is built once and layered.
//
// The masks are the server's weights in encoded form, so the set belongs
// to the server: the NTT-form masks of every product whose plaintext
// operand is a model weight (each HGS or Primer-base linear layer, and
// each CHGS head's combined weight W_M).
struct ModelSet {
  using Ptr = std::shared_ptr<const Circuit>;

  ModelSet(const BertWeightsI& weights, PrimerVariant variant,
           HeProfile profile);

  PrimerVariant variant;
  HeProfile profile;
  std::uint64_t t;
  // Activation circuits, deduplicated by spec: under CHGS the V-only
  // truncation (qkv) is the attention-output truncation (attnv).
  Ptr embed, qkv, attnv, gelu, cls;
  Ptr softmax;  // one attention row; shared by every block, head and row
  // One pair per block: gamma/beta are baked into the circuit.
  std::vector<Ptr> ln1, ln2;

  struct BlockMasks {
    EncodedMatrix q, k, v, o, f1, f2;  // q and k stay empty under CHGS
    std::vector<EncodedMatrix> w_m;    // CHGS: W_M per head
  };
  struct Masks {
    EncodedMatrix embed, cls;
    std::vector<BlockMasks> blocks;

    std::size_t count() const;  // nonzero masks, one plain mult each
  } masks;
};

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
  // Smallest noise budget any decryption measured (+inf if nothing was
  // decrypted).
  double min_noise_margin_bits = 0;
  // GC nonlinear-layer totals across all stages of the run: AND gates
  // garbled, garble/eval compute (wall) and garbled-table bytes shipped.
  std::uint64_t gc_and_gates = 0;
  double gc_garble_s = 0;
  double gc_eval_s = 0;
  std::uint64_t gc_table_bytes = 0;
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

  double offline_total_s() const { return offline_compute_s + offline_network_s; }
  double online_total_s() const { return online_compute_s + online_network_s; }
};

class PrimerEngine {
 public:
  // Weights must use power-of-two tokens/d_model/head_dim (nano/micro
  // configs); kProto2048 is the intended live profile.  The engine builds
  // the model's set (ModelSet) unless given one built for the same
  // weights, variant and profile (PrimerServer shares one per hosted
  // model); a set of another variant, profile or block count throws
  // std::invalid_argument.  It also keeps one client key set (ClientKeys)
  // for its lifetime: the first completed run ships the keys, and later
  // runs send none.
  PrimerEngine(BertWeightsI weights, PrimerVariant variant,
               HeProfile profile = HeProfile::kProto2048,
               std::uint64_t seed = 7,
               std::shared_ptr<const ModelSet> model_set = nullptr);

  // One private inference (offline + online, separately accounted).
  PrimerRunResult run(const std::vector<std::size_t>& tokens);

  // One private inference with session resilience: checkpoints are persisted
  // into `options.store` at phase boundaries, and on a retryable
  // ProtocolError (damaged or missing frame, peer kill, deadline) the
  // protocol is re-attempted — resuming from the last common checkpoint via
  // the kSessionHello/kSessionResume handshake, with the checkpoint-covered
  // frame prefix replayed at zero wire cost.  Each restart applies
  // FaultSpec::prepare_restart (one-shot triggers fire only on the first
  // attempt, random faults re-seed).  The result is bit-identical to an
  // unfaulted run().  Everything else ends the run at once: fatal errors,
  // a retryable error past `max_restarts` restarts, OperationCancelled
  // (`options.cancel` fired) and SessionDrained (`options.drain` set).
  // This is the only restart loop; PrimerServer runs every session
  // through it.
  PrimerRunResult run_resilient(const std::vector<std::size_t>& tokens,
                                SessionOptions options, int max_restarts = 5);
  // The same over SessionOptions::from_env() with `store` attached.
  PrimerRunResult run_resilient(const std::vector<std::size_t>& tokens,
                                SessionStore& store, int max_restarts = 5);

  // Telemetry from the most recent failed attempt (costs accrued before the
  // fault, min noise margin observed, and — when run_resilient gave up —
  // the restarts it had consumed); null until a run throws.
  const PrimerRunResult* last_partial() const { return last_partial_.get(); }

  const BertWeightsI& weights() const { return w_; }
  PrimerVariant variant() const { return variant_; }
  const std::shared_ptr<const ModelSet>& model_set() const {
    return model_set_;
  }
  // The client's HE key set: generated by the first run, shipped by the
  // first completed run, then reused by every later one (null before the
  // first run).
  const ClientKeys* keys() const { return keys_.get(); }

 private:
  // One protocol attempt under explicit session options.  Fills
  // last_partial_ and rethrows on failure.
  PrimerRunResult run_session(const std::vector<std::size_t>& tokens,
                              const SessionOptions& options);
  // The protocol body proper, over an already-constructed context.
  PrimerRunResult run_protocol(const std::vector<std::size_t>& tokens,
                               ProtocolContext& pc);

  bool offline_offload() const { return variant_ != PrimerVariant::kBase; }
  bool merged_qk() const { return variant_ == PrimerVariant::kFPC; }

  BertWeightsI w_;
  PrimerVariant variant_;
  HeProfile profile_;
  std::uint64_t seed_;
  std::shared_ptr<const ModelSet> model_set_;
  std::unique_ptr<ClientKeys> keys_;
  std::unique_ptr<PrimerRunResult> last_partial_;
};

// Reference logits for the kFPC variant, whose merged Q*K^T skips the
// intermediate Q/K truncations (higher precision, slightly different
// rounding than FixedBert).  Tests compare the live kFPC run against this.
std::vector<std::int64_t> fixed_forward_chgs(const BertWeightsI& w,
                                             const std::vector<std::size_t>& tokens);

}  // namespace primer
