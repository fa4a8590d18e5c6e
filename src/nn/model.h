// BERT encoder models: float reference and 15-bit fixed-point reference.
//
// The fixed-point model defines the exact arithmetic the private protocols
// must reproduce: raw values carry 8 fractional bits, matrix products
// accumulate untruncated (the protocols hold these accumulations as secret
// shares mod t) and are truncated/saturated back to 15 bits by the GC stage
// — here mirrored by fp_truncate.  SoftMax/GELU use the same int64 reference
// semantics as the garbled circuits (gc/fixed_circuits.h), so a live
// protocol run must agree with FixedBert bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "gc/fixed_circuits.h"
#include "nn/config.h"

namespace primer {

// ---------------------------------------------------------------------------
// Weights
// ---------------------------------------------------------------------------

struct BlockWeightsD {
  MatD wq, wk, wv, wo;       // d x d (wq pre-scaled by 1/sqrt(head_dim))
  MatD w1, w2;               // d x d_ff, d_ff x d
  std::vector<double> b_q, b_k, b_v, b_o, b_1, b_2;
  std::vector<double> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
};

struct BertWeightsD {
  BertConfig config;
  MatD we;                   // vocab x d  (word embedding, delta folded in)
  MatD pos;                  // n x d      (positional bias lambda)
  std::vector<BlockWeightsD> blocks;
  MatD w_cls;                // d x num_classes
  std::vector<double> b_cls;

  // Random initialization (seeded) sized to keep 15-bit fixed point healthy.
  static BertWeightsD random(const BertConfig& config, Rng& rng,
                             double weight_scale = 0.25);
};

struct BlockWeightsI {
  MatI wq, wk, wv, wo, w1, w2;
  std::vector<std::int64_t> b_q, b_k, b_v, b_o, b_1, b_2;
  std::vector<std::int64_t> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
};

struct BertWeightsI {
  BertConfig config;
  FixedPointFormat fmt;
  MatI we;
  MatI pos;
  std::vector<BlockWeightsI> blocks;
  MatI w_cls;
  std::vector<std::int64_t> b_cls;
};

BertWeightsI quantize(const BertWeightsD& w,
                      const FixedPointFormat& fmt = kDefaultFixedPoint);

// ---------------------------------------------------------------------------
// Fixed-point primitives shared with the protocols
// ---------------------------------------------------------------------------

// Untruncated linear layer: acc = x * w + (bias << frac); entries carry
// 2*frac fractional bits.  This is exactly the value the protocols hold as
// secret shares before the GC truncation stage.
MatI fixed_linear_acc(const MatI& x, const MatI& w,
                      const std::vector<std::int64_t>* bias,
                      const FixedPointFormat& fmt = kDefaultFixedPoint);

// Truncate a 2*frac accumulation back to the 15-bit raw format.
MatI fixed_truncate(const MatI& acc,
                    const FixedPointFormat& fmt = kDefaultFixedPoint);

// Fixed-point LayerNorm over each row (reference semantics for the GC
// layer-norm circuit): mean/variance via truncating division, 1/sqrt via the
// shared PWL table, then per-element gamma/beta affine.
std::vector<std::int64_t> fixed_layernorm_row(
    const std::vector<std::int64_t>& x,
    const std::vector<std::int64_t>& gamma,
    const std::vector<std::int64_t>& beta,
    const FixedPointFormat& fmt = kDefaultFixedPoint);

MatI fixed_layernorm(const MatI& x, const std::vector<std::int64_t>& gamma,
                     const std::vector<std::int64_t>& beta,
                     const FixedPointFormat& fmt = kDefaultFixedPoint);

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

class FloatBert {
 public:
  explicit FloatBert(BertWeightsD weights) : w_(std::move(weights)) {}

  // tokens.size() must equal config.tokens; values < config.vocab.
  std::vector<double> forward(const std::vector<std::size_t>& tokens) const;
  std::size_t predict(const std::vector<std::size_t>& tokens) const;

  const BertWeightsD& weights() const { return w_; }

 private:
  BertWeightsD w_;
};

class FixedBert {
 public:
  explicit FixedBert(BertWeightsI weights) : w_(std::move(weights)) {}

  std::vector<std::int64_t> forward(
      const std::vector<std::size_t>& tokens) const;
  std::size_t predict(const std::vector<std::size_t>& tokens) const;

  // Embedding output X[1] (raw fixed point) — the protocols start here.
  MatI embed(const std::vector<std::size_t>& tokens) const;
  // One encoder block on raw fixed-point input.
  MatI encoder_block(const MatI& x, const BlockWeightsI& blk) const;
  // Classification head on the final hidden states.
  std::vector<std::int64_t> classify(const MatI& hidden) const;

  const BertWeightsI& weights() const { return w_; }

 private:
  BertWeightsI w_;
};

// Builds a one-hot input matrix X[0] (n x vocab) in raw fixed point — used
// by the protocols, which must pay for the full embedding matmul.
MatI one_hot_input(const std::vector<std::size_t>& tokens,
                   const BertConfig& config,
                   const FixedPointFormat& fmt = kDefaultFixedPoint);

}  // namespace primer
