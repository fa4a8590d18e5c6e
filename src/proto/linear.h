// Linear-layer protocols.
//
// HgsLinear — the paper's HGS protocol (Fig. 4): the heavy encrypted
// matrix multiplication Enc(Rc) * W happens OFFLINE; online the server only
// computes the unencrypted (X - Rc) * W and the parties end up with
// additive shares of X*W (+ bias, in the untruncated accumulation domain).
//
// BaseLinear — the Gazelle-style online protocol used by Primer-base: the
// client encrypts its share online, the server multiplies homomorphically
// and returns a masked result.  Same share interface, all cost online.
#pragma once

#include <string>

#include "proto/runtime.h"

namespace primer {

// One linear layer X*W + bias over shared X, whichever protocol runs it.
class LinearProtocol {
 public:
  LinearProtocol() = default;
  LinearProtocol(const LinearProtocol&) = delete;
  LinearProtocol& operator=(const LinearProtocol&) = delete;
  virtual ~LinearProtocol() = default;

  // Offline phase.  `mask` is the client's share of this layer's input
  // (the mask the preceding GC stage re-shared its output under).  Charged
  // to costs["offline"][step_name].
  virtual void offline(const std::string& step_name, const MatI& mask) = 0;

  // Online phase: shares of X*W + bias (ring values mod t, accumulation
  // (2*frac) domain) from shares of X.  Charged to
  // costs["online"][step_name].
  virtual SharePair online(const std::string& step_name,
                           const SharePair& x) const = 0;
};

class HgsLinear : public LinearProtocol {
 public:
  // W: d_in x d_out raw fixed-point (server-held); bias optional (d_out).
  // `w_enc` is W encoded for the product (its tokens and packing); it
  // must outlive the layer.
  HgsLinear(ProtocolContext& pc, MatI w, std::vector<std::int64_t> bias,
            const EncodedMatrix& w_enc)
      : pc_(pc), w_(std::move(w)), bias_(std::move(bias)), w_enc_(w_enc),
        tokens_(w_enc.tokens),
        mm_(pc.he, pc.encoder, pc.eval, w_enc.strategy) {
    pc_.keys.ensure_rotation_steps(
        mm_.rotation_steps(tokens_, w_.rows(), w_.cols()));
  }

  // The client's share of X*W is fixed here: Rc*W - Rs.
  void offline(const std::string& step_name, const MatI& mask) override;

  // The server holds x.server = X - Rc and computes its share unencrypted;
  // x.client is the offline mask, so the client needs no traffic.
  SharePair online(const std::string& step_name,
                   const SharePair& x) const override;

 private:
  ProtocolContext& pc_;
  MatI w_;
  std::vector<std::int64_t> bias_;
  const EncodedMatrix& w_enc_;
  std::size_t tokens_;
  PackedMatmul mm_;
  MatI client_share_;  // Rc*W - Rs (client side, produced offline)
  MatI rs_;            // server mask (server side)
};

class BaseLinear : public LinearProtocol {
 public:
  BaseLinear(ProtocolContext& pc, MatI w, std::vector<std::int64_t> bias,
             const EncodedMatrix& w_enc)
      : pc_(pc), w_(std::move(w)), bias_(std::move(bias)), w_enc_(w_enc),
        tokens_(w_enc.tokens),
        mm_(pc.he, pc.encoder, pc.eval, w_enc.strategy) {
    pc_.keys.ensure_rotation_steps(
        mm_.rotation_steps(tokens_, w_.rows(), w_.cols()));
  }

  // Fully online: nothing to precompute.
  void offline(const std::string&, const MatI&) override {}

  // The client encrypts x.client online; the server multiplies it and adds
  // x.server*W.
  SharePair online(const std::string& step_name,
                   const SharePair& x) const override;

 private:
  ProtocolContext& pc_;
  MatI w_;
  std::vector<std::int64_t> bias_;
  const EncodedMatrix& w_enc_;
  std::size_t tokens_;
  PackedMatmul mm_;
};

}  // namespace primer
