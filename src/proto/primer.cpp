#include "proto/primer.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

namespace primer {

namespace {

MatI slice_cols(const MatI& m, std::size_t from, std::size_t count) {
  MatI out(m.rows(), count);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < count; ++j) out(i, j) = m(i, from + j);
  }
  return out;
}

// Writes `src` into `dst` with its top-left corner at (row, col).
void paste(MatI& dst, const MatI& src, std::size_t row, std::size_t col) {
  for (std::size_t i = 0; i < src.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols(); ++j) {
      dst(row + i, col + j) = src(i, j);
    }
  }
}

MatI row_of(const MatI& m, std::size_t r) {
  MatI out(1, m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j) out(0, j) = m(r, j);
  return out;
}

// One-hot input with INTEGER entries (value 1, not 1<<frac): the embedding
// X*WE + pos is then exactly the raw-domain embedding (FixedBert::embed's
// truncation is lossless), so the embed GC stage uses frac_shift = 0.
MatI one_hot_integer(const std::vector<std::size_t>& tokens,
                     const BertConfig& cfg) {
  if (tokens.size() != cfg.tokens) {
    throw std::invalid_argument("PrimerEngine: wrong token count");
  }
  MatI x(cfg.tokens, cfg.vocab);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] >= cfg.vocab) {
      throw std::invalid_argument("PrimerEngine: token id out of vocabulary");
    }
    x(i, tokens[i]) = 1;
  }
  return x;
}

PackingStrategy linear_packing(PrimerVariant v) {
  return v == PrimerVariant::kBase || v == PrimerVariant::kF
             ? PackingStrategy::kFeatureBased
             : PackingStrategy::kTokensFirst;
}

// The embedding a CHGS head of `block` merges over: WE in block 0.  Deeper
// blocks merge their Q/K projections over an identity "embedding" of the
// block input (integer 1 entries keep the raw domain).
MatI chgs_embedding(const BertWeightsI& w, std::size_t block) {
  if (block == 0) return w.we;
  const std::size_t d = w.config.d_model;
  MatI ident(d, d);
  for (std::size_t i = 0; i < d; ++i) ident(i, i) = 1;
  return ident;
}

SharePair slice_cols(const SharePair& s, std::size_t from, std::size_t count) {
  return {slice_cols(s.client, from, count), slice_cols(s.server, from, count)};
}

SharePair transposed(const SharePair& s) {
  return {s.client.transposed(), s.server.transposed()};
}

SharePair row_of(const SharePair& s, std::size_t r) {
  return {row_of(s.client, r), row_of(s.server, r)};
}

// One GC stage whose outputs the client re-shares under fresh masks.  The
// server (garbler) feeds its share of each input; the client (evaluator)
// feeds its share of each input, then each mask.  The stage reveals each
// output minus its mask (to the server, except at the classifier), so
// output i is shared as (masks[i], revealed value).
std::vector<SharePair> reshare(ProtocolContext& pc, GcStage& stage,
                               const std::string& step,
                               const std::vector<SharePair>& ins,
                               const std::vector<MatI>& masks) {
  std::vector<bool> garbler, evaluator;
  auto append = [](std::vector<bool>& to, const std::vector<bool>& bits) {
    to.insert(to.end(), bits.begin(), bits.end());
  };
  for (const SharePair& in : ins) {
    append(garbler, pc.ring_bits(in.server));
    append(evaluator, pc.ring_bits(in.client));
  }
  for (const MatI& mask : masks) append(evaluator, pc.ring_bits(mask));
  const std::vector<bool> bits =
      stage.online("online", step, garbler, evaluator);
  std::vector<SharePair> out;
  auto from = bits.begin();
  for (const MatI& mask : masks) {
    const auto to = from + static_cast<std::ptrdiff_t>(mask.size() *
                                                       pc.share_bits());
    out.push_back(
        {mask, pc.bits_to_ring({from, to}, mask.rows(), mask.cols())});
    from = to;
  }
  return out;
}

// The same for a row-wise stage (softmax, layer norm): row i of every input
// and of `mask` runs through stages[i].
SharePair reshare_rows(ProtocolContext& pc,
                       const std::vector<std::unique_ptr<GcStage>>& stages,
                       const std::string& step,
                       const std::vector<SharePair>& ins, const MatI& mask) {
  SharePair out{mask, MatI(mask.rows(), mask.cols())};
  for (std::size_t i = 0; i < mask.rows(); ++i) {
    std::vector<SharePair> rows;
    for (const SharePair& in : ins) rows.push_back(row_of(in, i));
    const SharePair row =
        reshare(pc, *stages[i], step, rows, {row_of(mask, i)})[0];
    paste(out.server, row.server, i, 0);
  }
  return out;
}

// Cost-summary tail shared by the success path and the partial-result
// builder on the failure path: everything that can be read off the context
// regardless of how far the protocol got.
void summarize_costs(PrimerRunResult& result, const ProtocolContext& pc) {
  result.costs = pc.costs;
  const PhaseCost off_total = pc.costs.phase_total("offline");
  const PhaseCost on_total = pc.costs.phase_total("online");
  result.offline_compute_s = off_total.compute_seconds;
  result.offline_network_s = off_total.network_seconds;
  result.offline_cpu_s = off_total.cpu_seconds;
  result.online_compute_s = on_total.compute_seconds;
  result.online_network_s = on_total.network_seconds;
  result.online_cpu_s = on_total.cpu_seconds;
  result.total_bytes = pc.channel.total_bytes();
  result.rounds = pc.channel.flights();
  result.replayed_frames = pc.framed.stats().replayed_frames;
  result.replayed_bytes = pc.framed.stats().replayed_bytes;
  result.frames_sent = pc.framed.stats().frames_sent;
  result.resumed_epoch = pc.resumed_epoch();
  result.checkpoints = pc.checkpoints_taken();
  result.handshake_bytes = pc.handshake_bytes();
  if (pc.session.store != nullptr) {
    const SessionStore::Telemetry st = pc.session.store->telemetry();
    result.store_bytes_written = st.bytes_written;
    result.store_fsyncs = st.fsyncs;
    result.store_degradations = st.degradations;
    result.store_degraded = st.degraded;
    result.checkpoint_blob_bytes = pc.session.store->blob_bytes();
  }
  PhaseCost grand = off_total;
  grand += on_total;
  result.min_noise_margin_bits = grand.min_noise_margin_bits;
  result.gc_and_gates = grand.gc_and_gates;
  result.gc_garble_s = grand.gc_garble_seconds;
  result.gc_eval_s = grand.gc_eval_seconds;
  result.gc_table_bytes = grand.gc_table_bytes;
}

}  // namespace

const char* variant_name(PrimerVariant v) {
  switch (v) {
    case PrimerVariant::kBase: return "Primer-base";
    case PrimerVariant::kF: return "Primer-F";
    case PrimerVariant::kFP: return "Primer-FP";
    case PrimerVariant::kFPC: return "Primer-FPC";
  }
  return "?";
}

ModelSet::ModelSet(const BertWeightsI& weights, PrimerVariant variant,
                   HeProfile profile)
    : variant(variant), profile(profile), t(make_params(profile).t) {
  const auto& cfg = weights.config;
  const std::size_t n = cfg.tokens;
  const std::size_t d = cfg.d_model;
  const std::size_t frac = static_cast<std::size_t>(weights.fmt.frac_bits);
  const bool merged_qk = variant == PrimerVariant::kFPC;

  std::map<std::tuple<std::size_t, std::size_t, Activation>, Ptr> acts;
  auto act = [&](std::size_t count, std::size_t shift, Activation a) {
    Ptr& c = acts[{count, shift, a}];
    if (c == nullptr) {
      ActivationCircuitSpec spec;
      spec.t = t;
      spec.count = count;
      spec.frac_shift = shift;
      spec.act = a;
      spec.fmt = weights.fmt;
      c = share_layered(make_activation_circuit(spec));
    }
    return c;
  };
  embed = act(n * d, 0, Activation::kIdentity);
  qkv = act(merged_qk ? n * d : 3 * n * d, frac, Activation::kIdentity);
  attnv = act(n * d, frac, Activation::kIdentity);
  gelu = act(n * cfg.d_ff, frac, Activation::kGelu);
  cls = act(cfg.num_classes, frac, Activation::kIdentity);

  SoftmaxCircuitSpec sm;
  sm.t = t;
  sm.count = n;
  // Merged Q*K^T scores skip the Q/K truncations: 4*frac, not 2*frac.
  sm.frac_shift = merged_qk ? 3 * frac : frac;
  sm.fmt = weights.fmt;
  softmax = share_layered(make_softmax_circuit(sm));

  auto ln = [&](const std::vector<std::int64_t>& gamma,
                const std::vector<std::int64_t>& beta) {
    LayerNormCircuitSpec spec;
    spec.t = t;
    spec.d = d;
    spec.frac_shift = frac;
    spec.gamma = gamma;
    spec.beta = beta;
    spec.fmt = weights.fmt;
    return share_layered(make_layernorm_circuit(spec));
  };
  for (const auto& blk : weights.blocks) {
    ln1.push_back(ln(blk.ln1_gamma, blk.ln1_beta));
    ln2.push_back(ln(blk.ln2_gamma, blk.ln2_beta));
  }

  // NTT-form residues depend on the profile's moduli alone, so masks
  // encoded under this private context multiply under any context of the
  // profile.
  const HeContext he(make_params(profile));
  const BatchEncoder encoder(he);
  const Evaluator eval(he);
  const PackedMatmul lin(he, encoder, eval, linear_packing(variant));
  const PackedMatmul tf(he, encoder, eval, PackingStrategy::kTokensFirst);
  const ShareRing ring(t);
  const std::size_t dh = cfg.head_dim();
  masks.embed = lin.encode(weights.we, n);
  for (std::size_t b = 0; b < weights.blocks.size(); ++b) {
    const auto& blk = weights.blocks[b];
    BlockMasks& m = masks.blocks.emplace_back();
    if (merged_qk) {
      const MatI we = chgs_embedding(weights, b);
      for (std::size_t h = 0; h < cfg.heads; ++h) {
        m.w_m.push_back(tf.encode(
            chgs_combined_weight(ring, we, slice_cols(blk.wq, h * dh, dh),
                                 slice_cols(blk.wk, h * dh, dh)),
            n));
      }
    } else {
      m.q = lin.encode(blk.wq, n);
      m.k = lin.encode(blk.wk, n);
    }
    m.v = lin.encode(blk.wv, n);
    m.o = lin.encode(blk.wo, n);
    m.f1 = lin.encode(blk.w1, n);
    m.f2 = lin.encode(blk.w2, n);
  }
  masks.cls = lin.encode(weights.w_cls, 1);
}

std::size_t ModelSet::Masks::count() const {
  std::size_t total = embed.nonzero_masks() + cls.nonzero_masks();
  for (const BlockMasks& b : blocks) {
    for (const EncodedMatrix* e : {&b.q, &b.k, &b.v, &b.o, &b.f1, &b.f2}) {
      total += e->nonzero_masks();
    }
    for (const EncodedMatrix& e : b.w_m) total += e.nonzero_masks();
  }
  return total;
}

PrimerEngine::PrimerEngine(BertWeightsI weights, PrimerVariant variant,
                           HeProfile profile, std::uint64_t seed,
                           std::shared_ptr<const ModelSet> model_set)
    : w_(std::move(weights)), variant_(variant), profile_(profile),
      seed_(seed), model_set_(std::move(model_set)) {
  const auto& cfg = w_.config;
  auto pow2 = [](std::size_t v) { return v != 0 && (v & (v - 1)) == 0; };
  if (!pow2(cfg.tokens) || !pow2(cfg.d_model) || !pow2(cfg.head_dim())) {
    throw std::invalid_argument(
        "PrimerEngine: live runs need power-of-two tokens/d_model/head_dim");
  }
  if (variant_ == PrimerVariant::kFPC) {
    for (const auto b : w_.blocks[0].b_q) {
      if (b != 0) throw std::invalid_argument("CHGS requires zero Q/K biases");
    }
  }
  if (model_set_ == nullptr) {
    model_set_ = std::make_shared<const ModelSet>(w_, variant_, profile_);
  } else if (model_set_->variant != variant_ ||
             model_set_->profile != profile_ ||
             model_set_->ln1.size() != cfg.blocks) {
    throw std::invalid_argument(
        "PrimerEngine: model set was built for another model");
  }
}

PrimerRunResult PrimerEngine::run(const std::vector<std::size_t>& tokens) {
  return run_session(tokens, SessionOptions::from_env());
}

PrimerRunResult PrimerEngine::run_resilient(
    const std::vector<std::size_t>& tokens, SessionStore& store,
    int max_restarts) {
  SessionOptions opts = SessionOptions::from_env();
  opts.store = &store;
  return run_resilient(tokens, std::move(opts), max_restarts);
}

PrimerRunResult PrimerEngine::run_resilient(
    const std::vector<std::size_t>& tokens, SessionOptions options,
    int max_restarts) {
  int restarts = 0;
  std::uint64_t prior_bytes = 0;
  try {
    for (;; ++restarts) {
      try {
        PrimerRunResult result = run_session(tokens, options);
        result.restarts = restarts;
        result.prior_attempt_bytes = prior_bytes;
        return result;
      } catch (const ProtocolError& e) {
        if (!e.retryable() || restarts >= max_restarts) throw;
      }
      if (last_partial_ != nullptr) prior_bytes += last_partial_->total_bytes;
      options.faults.prepare_restart();
    }
  } catch (...) {
    if (last_partial_ != nullptr) last_partial_->restarts = restarts;
    throw;
  }
}

PrimerRunResult PrimerEngine::run_session(
    const std::vector<std::size_t>& tokens, const SessionOptions& options) {
  if (keys_ == nullptr) {
    // Empty step list: each protocol object registers the rotation steps
    // it uses (ClientKeys::ensure_rotation_steps).
    keys_ = std::make_unique<ClientKeys>(profile_, seed_, std::vector<int>{});
  }
  ProtocolContext pc(*keys_, seed_, options);
  try {
    pc.start_session();
    PrimerRunResult result = run_protocol(tokens, pc);
    // Only a completed run installs the keys: until then every attempt
    // ships them, so restarts replay one transcript.
    keys_->mark_installed();
    return result;
  } catch (...) {
    // Snapshot what the attempt accrued before the fault so callers (and
    // run_resilient's byte accounting) see partial costs and the smallest
    // noise margin observed.
    auto partial = std::make_unique<PrimerRunResult>();
    summarize_costs(*partial, pc);
    // A throwing step never reaches step()'s cost fold, so pull the
    // decryptor's pending margin telemetry in directly.
    partial->min_noise_margin_bits =
        std::min(partial->min_noise_margin_bits, pc.dec.take_min_margin());
    last_partial_ = std::move(partial);
    throw;
  }
}

PrimerRunResult PrimerEngine::run_protocol(
    const std::vector<std::size_t>& tokens, ProtocolContext& pc) {
  const auto& cfg = w_.config;
  const std::size_t n = cfg.tokens;
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.head_dim();
  const std::size_t heads = cfg.heads;
  const ShareRing& ring = pc.ring;

  // Primer-base has no offline phase: it charges the key transfer and GC
  // garbling online.
  const std::string off = offline_offload() ? "offline" : "online";
  // CHGS applies to every block: block 0 merges Embed+QKV(QK)+QxK from the
  // one-hot input; deeper blocks merge their Q/K projections into the
  // adjacent FHGS ("incorporating three HGS modules into the adjacent FHGS
  // module", Fig. 3d) using an identity embedding over the block input.
  const bool chgs = merged_qk();
  const std::string embed_step = chgs ? "others" : "embed";
  const std::string v_step = chgs ? "attnv" : "qkv";

  // --- client masks (sampled offline) ---------------------------------------
  MatI r0 = ring.random(pc.client_rng, n, cfg.vocab);
  MatI r_u = ring.random(pc.client_rng, n, d);
  struct BlockMasks {
    MatI rq, rk, rv, ra, rl1, rg, rl2;
    std::vector<MatI> rp;
  };
  std::vector<BlockMasks> bm(cfg.blocks);
  for (auto& m : bm) {
    m.rq = ring.random(pc.client_rng, n, d);
    m.rk = ring.random(pc.client_rng, n, d);
    m.rv = ring.random(pc.client_rng, n, d);
    m.ra = ring.random(pc.client_rng, n, d);
    m.rl1 = ring.random(pc.client_rng, n, d);
    m.rg = ring.random(pc.client_rng, n, cfg.d_ff);
    m.rl2 = ring.random(pc.client_rng, n, d);
    for (std::size_t h = 0; h < heads; ++h) {
      m.rp.push_back(ring.random(pc.client_rng, n, n));
    }
  }

  // --- protocol objects ------------------------------------------------------
  // The variant picks the protocol behind each layer.  HGS and FHGS move the
  // encrypted work offline; Primer-base runs the Gazelle-style online
  // linear layer and ciphertext products, whose offline() does nothing.
  // Every weight product multiplies the model set's encoded masks.
  const ModelSet& set = *model_set_;
  auto linear = [&](const MatI& w, const std::vector<std::int64_t>& bias,
                    const EncodedMatrix& w_enc)
      -> std::unique_ptr<LinearProtocol> {
    if (offline_offload()) {
      return std::make_unique<HgsLinear>(pc, w, bias, w_enc);
    }
    return std::make_unique<BaseLinear>(pc, w, bias, w_enc);
  };
  auto product = [&](std::size_t rows, std::size_t inner,
                     std::size_t cols) -> std::unique_ptr<ProductProtocol> {
    if (offline_offload()) {
      return std::make_unique<FhgsProduct>(pc, rows, inner, cols);
    }
    return std::make_unique<CtCtProduct>(pc, rows, inner, cols);
  };

  const auto embed = linear(w_.we, {}, set.masks.embed);
  struct BlockProtos {
    std::unique_ptr<LinearProtocol> q, k, v, o, f1, f2;  // no q, k under CHGS
    std::vector<std::unique_ptr<ProductProtocol>> qk, pv;  // per head
    std::vector<std::unique_ptr<ChgsScores>> chgs;         // replaces qk
  };
  std::vector<BlockProtos> bp(cfg.blocks);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    const auto& blk = w_.blocks[b];
    const ModelSet::BlockMasks& mb = set.masks.blocks[b];
    if (!chgs) {
      bp[b].q = linear(blk.wq, blk.b_q, mb.q);
      bp[b].k = linear(blk.wk, blk.b_k, mb.k);
    }
    bp[b].v = linear(blk.wv, blk.b_v, mb.v);
    bp[b].o = linear(blk.wo, blk.b_o, mb.o);
    bp[b].f1 = linear(blk.w1, blk.b_1, mb.f1);
    bp[b].f2 = linear(blk.w2, blk.b_2, mb.f2);
    for (std::size_t h = 0; h < heads; ++h) {
      if (chgs) {
        bp[b].chgs.push_back(std::make_unique<ChgsScores>(
            pc, n, chgs_embedding(w_, b), b == 0 ? w_.pos : MatI(n, d),
            slice_cols(blk.wq, h * dh, dh), slice_cols(blk.wk, h * dh, dh),
            mb.w_m[h]));
      } else {
        bp[b].qk.push_back(product(n, dh, n));
      }
      bp[b].pv.push_back(product(n, n, dh));
    }
  }
  const auto cls = linear(w_.w_cls, w_.b_cls, set.masks.cls);

  // Every protocol object has registered its rotation steps by now.  The
  // engine's first run ships the client's finalized evaluation keys through
  // the accounted wire, then snapshots the first resumable boundary; once
  // the key set is installed the server holds them, and the transcript
  // starts at GC offline.
  if (!pc.keys.installed()) {
    pc.transfer_keys(off);
    pc.checkpoint("key_transfer");
  }

  // --- GC stages ----------------------------------------------------------
  // Every stage's OT shares the session's one setup.  It gets a step of its
  // own rather than riding on whichever stage garbles first.
  pc.step(off, "ot_setup", [&] { pc.ot.setup(); });
  auto garble = [&](const ModelSet::Ptr& circuit, const std::string& step,
                    RevealTo reveal = RevealTo::kGarbler) {
    auto stage = std::make_unique<GcStage>(pc, circuit, reveal);
    stage->offline(off, step);
    return stage;
  };
  const auto gc_embed = garble(set.embed, embed_step);
  struct BlockStages {
    std::unique_ptr<GcStage> qkv, attnv, gelu;
    std::vector<std::vector<std::unique_ptr<GcStage>>> softmax;  // head, row
    std::vector<std::unique_ptr<GcStage>> ln1, ln2;              // row
  };
  std::vector<BlockStages> bs(cfg.blocks);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    bs[b].qkv = garble(set.qkv, v_step);
    bs[b].softmax.resize(heads);
    for (auto& rows : bs[b].softmax) {
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(garble(set.softmax, "softmax"));
      }
    }
    bs[b].attnv = garble(set.attnv, "attnv");
    for (std::size_t i = 0; i < n; ++i) {
      bs[b].ln1.push_back(garble(set.ln1[b], "others"));
      bs[b].ln2.push_back(garble(set.ln2[b], "others"));
    }
    bs[b].gelu = garble(set.gelu, "others");
  }
  const auto gc_cls = garble(set.cls, "others", RevealTo::kEvaluator);
  pc.checkpoint("gc_offline");

  // --- HGS/FHGS/CHGS offline -------------------------------------------------
  embed->offline(embed_step, r0);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    const BlockMasks& m = bm[b];
    const MatI& rin = (b == 0) ? r_u : bm[b - 1].rl2;
    if (!chgs) {
      bp[b].q->offline("qkv", rin);
      bp[b].k->offline("qkv", rin);
    }
    bp[b].v->offline(v_step, rin);
    bp[b].o->offline("others", m.ra);
    bp[b].f1->offline("others", m.rl1);
    bp[b].f2->offline("others", m.rg);
    for (std::size_t h = 0; h < heads; ++h) {
      if (chgs) {
        bp[b].chgs[h]->offline("qk", b == 0 ? r0 : rin);
      } else {
        bp[b].qk[h]->offline("qk", slice_cols(m.rq, h * dh, dh),
                             slice_cols(m.rk, h * dh, dh).transposed());
      }
      bp[b].pv[h]->offline("attnv", m.rp[h], slice_cols(m.rv, h * dh, dh));
    }
  }
  cls->offline("others", row_of(bm[cfg.blocks - 1].rl2, 0));
  pc.checkpoint("linear_offline");

  // ==========================================================================
  // ONLINE
  // ==========================================================================
  // Embedding.  Under Primer-base the client holds the one-hot X itself;
  // under HGS it sends X - R0 and keeps the mask R0.
  SharePair x0{ring.reduce(one_hot_integer(tokens, cfg)), MatI(n, cfg.vocab)};
  if (offline_offload()) {
    pc.step("online", embed_step, [&] {
      pc.send_ring(Party::kClient, ring.sub(x0.client, r0));
      x0 = {r0, pc.recv_ring(Party::kServer, n, cfg.vocab)};
    });
  }
  SharePair acc_u = embed->online(embed_step, x0);
  // Positional bias (public, raw domain — the embedding is raw already).
  pc.step("online", embed_step, [&] {
    acc_u.server = ring.add(acc_u.server, ring.reduce(w_.pos));
  });
  SharePair cur = reshare(pc, *gc_embed, embed_step, {acc_u}, {r_u})[0];
  pc.checkpoint("online_embed");

  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    const BlockMasks& m = bm[b];
    BlockProtos& p = bp[b];
    BlockStages& s = bs[b];

    // --- QKV: one GC stage truncates Q|K|V together (V alone under CHGS) ----
    SharePair q, k, v;
    if (chgs) {
      v = reshare(pc, *s.qkv, v_step, {p.v->online(v_step, cur)}, {m.rv})[0];
    } else {
      const SharePair aq = p.q->online("qkv", cur);
      const SharePair ak = p.k->online("qkv", cur);
      const SharePair av = p.v->online("qkv", cur);
      const auto out =
          reshare(pc, *s.qkv, "qkv", {aq, ak, av}, {m.rq, m.rk, m.rv});
      q = out[0];
      k = out[1];
      v = out[2];
    }

    // --- attention scores + softmax + value ---------------------------------
    SharePair attn_acc{MatI(n, d), MatI(n, d)};
    for (std::size_t h = 0; h < heads; ++h) {
      const SharePair score =
          chgs ? p.chgs[h]->online("qk", b == 0 ? x0.server : cur.server)
               : p.qk[h]->online("qk", slice_cols(q, h * dh, dh),
                                 transposed(slice_cols(k, h * dh, dh)));
      const SharePair probs =
          reshare_rows(pc, s.softmax[h], "softmax", {score}, m.rp[h]);
      const SharePair head =
          p.pv[h]->online("attnv", probs, slice_cols(v, h * dh, dh));
      paste(attn_acc.client, head.client, 0, h * dh);
      paste(attn_acc.server, head.server, 0, h * dh);
    }
    const SharePair attn =
        reshare(pc, *s.attnv, "attnv", {attn_acc}, {m.ra})[0];

    // --- projection + LN1, FFN + LN2 ----------------------------------------
    const SharePair l1 = reshare_rows(
        pc, s.ln1, "others", {p.o->online("others", attn), cur}, m.rl1);
    const SharePair g =
        reshare(pc, *s.gelu, "others", {p.f1->online("others", l1)}, {m.rg})[0];
    cur = reshare_rows(pc, s.ln2, "others", {p.f2->online("others", g), l1},
                       m.rl2);
    pc.checkpoint("online_block_" + std::to_string(b));
  }

  // --- classifier ------------------------------------------------------------
  const SharePair acc_cls = cls->online("others", row_of(cur, 0));
  // The classifier stage reveals its output to the client, and under a zero
  // mask that output is the logits themselves.
  const MatI logits = ring.reconstruct(reshare(
      pc, *gc_cls, "others", {acc_cls}, {MatI(1, cfg.num_classes)})[0]);
  PrimerRunResult result;
  result.logits = logits.data();
  result.predicted = static_cast<std::size_t>(
      std::max_element(result.logits.begin(), result.logits.end()) -
      result.logits.begin());

  // --- cost summary ------------------------------------------------------------
  summarize_costs(result, pc);
  return result;
}

// ---------------------------------------------------------------------------
// kFPC fixed-point reference
// ---------------------------------------------------------------------------

std::vector<std::int64_t> fixed_forward_chgs(
    const BertWeightsI& w, const std::vector<std::size_t>& tokens) {
  const FixedBert model(w);
  const auto& cfg = w.config;
  const auto& fmt = w.fmt;
  const std::size_t dh = cfg.head_dim();
  const std::size_t frac = static_cast<std::size_t>(fmt.frac_bits);

  MatI x = model.embed(tokens);
  for (const auto& blk : w.blocks) {
    // Merged (untruncated) Q*K^T scores in every block: 4*frac domain.
    const MatI v = fixed_truncate(fixed_linear_acc(x, blk.wv, &blk.b_v, fmt),
                                  fmt);
    MatI attn(cfg.tokens, cfg.d_model);
    std::vector<std::int64_t> scores(cfg.tokens);
    for (std::size_t h = 0; h < cfg.heads; ++h) {
      const MatI wq_h(slice_cols(blk.wq, h * dh, dh));
      const MatI wk_h(slice_cols(blk.wk, h * dh, dh));
      const MatI gq = fixed_linear_acc(x, wq_h, nullptr, fmt);
      const MatI gk = fixed_linear_acc(x, wk_h, nullptr, fmt);
      for (std::size_t i = 0; i < cfg.tokens; ++i) {
        for (std::size_t j = 0; j < cfg.tokens; ++j) {
          std::int64_t dot = 0;
          for (std::size_t c = 0; c < dh; ++c) dot += gq(i, c) * gk(j, c);
          scores[j] = dot;
        }
        const auto p = fixed_softmax_reference(scores, 3 * frac, fmt);
        for (std::size_t c = 0; c < dh; ++c) {
          std::int64_t acc = 0;
          for (std::size_t j = 0; j < cfg.tokens; ++j) {
            acc += p[j] * v(j, h * dh + c);
          }
          attn(i, h * dh + c) = fp_truncate(acc, fmt);
        }
      }
    }
    const MatI proj =
        fixed_truncate(fixed_linear_acc(attn, blk.wo, &blk.b_o, fmt), fmt);
    MatI res1(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
      res1.data()[i] = fp_saturate(x.data()[i] + proj.data()[i], fmt);
    }
    const MatI ln1 = fixed_layernorm(res1, blk.ln1_gamma, blk.ln1_beta, fmt);
    const MatI ff_acc = fixed_linear_acc(ln1, blk.w1, &blk.b_1, fmt);
    MatI ff(ff_acc.rows(), ff_acc.cols());
    for (std::size_t i = 0; i < ff_acc.size(); ++i) {
      ff.data()[i] = activation_reference(ff_acc.data()[i], frac,
                                          Activation::kGelu, fmt);
    }
    const MatI ff2 =
        fixed_truncate(fixed_linear_acc(ff, blk.w2, &blk.b_2, fmt), fmt);
    MatI res2(ln1.rows(), ln1.cols());
    for (std::size_t i = 0; i < ln1.size(); ++i) {
      res2.data()[i] = fp_saturate(ln1.data()[i] + ff2.data()[i], fmt);
    }
    x = fixed_layernorm(res2, blk.ln2_gamma, blk.ln2_beta, fmt);
  }
  return model.classify(x);
}

}  // namespace primer
