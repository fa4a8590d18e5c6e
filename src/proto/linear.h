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

#include <optional>
#include <string>

#include "proto/runtime.h"

namespace primer {

struct LinearShares {
  MatI client;  // ring values mod t, accumulation (2*frac) domain
  MatI server;
};

class HgsLinear {
 public:
  // W: d_in x d_out raw fixed-point (server-held); bias optional (d_out).
  HgsLinear(ProtocolContext& pc, MatI w, std::vector<std::int64_t> bias,
            std::size_t tokens, PackingStrategy strategy)
      : pc_(pc), w_(std::move(w)), bias_(std::move(bias)), tokens_(tokens),
        mm_(pc.he, pc.encoder, pc.eval, strategy) {
    pc_.keys.ensure_rotation_steps(mm_.rotation_steps(tokens_));
  }

  // Offline phase.  `rc` is the client's mask for this layer's input (the
  // same mask the preceding GC stage used to re-share its output).
  // Charged to costs[ "offline" ][ step_name ].
  void offline(const std::string& step_name, const MatI& rc);

  // Online phase: the server holds d = X - Rc (ring) and computes its share.
  // The client share was fixed offline.  Returns both (client share is the
  // locally stored offline value; no traffic needed online).
  LinearShares online(const std::string& step_name, const MatI& d) const;

  const MatI& weights() const { return w_; }

 private:
  ProtocolContext& pc_;
  MatI w_;
  std::vector<std::int64_t> bias_;
  std::size_t tokens_;
  PackedMatmul mm_;
  MatI client_share_;  // Rc*W - Rs (client side, produced offline)
  MatI rs_;            // server mask (server side)
};

class BaseLinear {
 public:
  BaseLinear(ProtocolContext& pc, MatI w, std::vector<std::int64_t> bias,
             std::size_t tokens, PackingStrategy strategy)
      : pc_(pc), w_(std::move(w)), bias_(std::move(bias)), tokens_(tokens),
        mm_(pc.he, pc.encoder, pc.eval, strategy) {
    pc_.keys.ensure_rotation_steps(mm_.rotation_steps(tokens_));
  }

  // Fully-online: input is shared (Xc at client, Xs at server); output is
  // shares of X*W + bias.  Charged to costs["online"][step_name].
  LinearShares online(const std::string& step_name, const MatI& xc,
                      const MatI& xs) const;

 private:
  ProtocolContext& pc_;
  MatI w_;
  std::vector<std::int64_t> bias_;
  std::size_t tokens_;
  PackedMatmul mm_;
};

}  // namespace primer
