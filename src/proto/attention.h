// Attention product protocols.
//
// FhgsProduct — the paper's Fully-HGS protocol (Fig. 5): Beaver-style
// offline triples (Enc(Ra), Enc(Rb^T), Enc(Ra*Rb)) turn the online
// ciphertext-ciphertext product of two SHARED matrices A (n x k) and
// B (k x m) into plaintext work plus two ciphertext-plaintext matmuls.
//
// CtCtProduct — the Primer-base fallback: genuine online ciphertext-
// ciphertext multiplications (tensoring + relinearization + rotations),
// the cost the paper identifies as prohibitive.
//
// ChgsScores — the combined-FHGS protocol (Fig. 6c): computes shares of the
// attention scores U*Wqk*U^T (U = X*WE + lambda) directly from the one-hot
// input, merging Embed + QKV(QK) + QxK into a single online interaction
// with combined weights prepared offline.
#pragma once

#include <string>

#include "proto/runtime.h"

namespace primer {

// Shares of C = A * B (ring, untruncated accumulation domain) from shares
// of A (n x k) and B (k x m), whichever protocol runs the product.
class ProductProtocol {
 public:
  ProductProtocol() = default;
  ProductProtocol(const ProductProtocol&) = delete;
  ProductProtocol& operator=(const ProductProtocol&) = delete;
  virtual ~ProductProtocol() = default;

  // Offline phase.  `ra` and `rb` are the client's shares of A and B (the
  // masks the preceding GC stages re-shared them under).  Charged to
  // costs["offline"][step_name].
  virtual void offline(const std::string& step_name, const MatI& ra,
                       const MatI& rb) = 0;

  // Online phase, charged to costs["online"][step_name].
  virtual SharePair online(const std::string& step_name, const SharePair& a,
                           const SharePair& b) = 0;
};

class FhgsProduct : public ProductProtocol {
 public:
  FhgsProduct(ProtocolContext& pc, std::size_t n, std::size_t k, std::size_t m)
      : pc_(pc), n_(n), k_(k), m_(m),
        mm_a_(pc.he, pc.encoder, pc.eval, PackingStrategy::kTokensFirst),
        mm_bt_(pc.he, pc.encoder, pc.eval, PackingStrategy::kTokensFirst) {
    // Enc(Ra) * Db (k x m) at n tokens; Enc(Rb^T) * Da^T (k x n) at m.
    pc_.keys.ensure_rotation_steps(mm_a_.rotation_steps(n_, k_, m_));
    pc_.keys.ensure_rotation_steps(mm_bt_.rotation_steps(m_, k_, n_));
  }

  // The client sends the triple Enc(Ra), Enc(Rb^T), Enc(Ra*Rb).
  void offline(const std::string& step_name, const MatI& ra,
               const MatI& rb) override;

  // The server computes its share from Da = a.server and Db = b.server
  // (A - Ra and B - Rb); the client decrypts its share.
  SharePair online(const std::string& step_name, const SharePair& a,
                   const SharePair& b) override;

 private:
  ProtocolContext& pc_;
  std::size_t n_, k_, m_;
  PackedMatmul mm_a_;   // Enc(Ra): n tokens x k features
  PackedMatmul mm_bt_;  // Enc(Rb^T): m tokens x k features
  std::vector<Ciphertext> enc_ra_;     // server-held after offline
  std::vector<Ciphertext> enc_rbt_;
  std::vector<Ciphertext> enc_rarb_;   // packed in the n x m output layout
};

// Primer-base online ciphertext-ciphertext product of shared matrices.
class CtCtProduct : public ProductProtocol {
 public:
  CtCtProduct(ProtocolContext& pc, std::size_t n, std::size_t k, std::size_t m)
      : pc_(pc), n_(n), k_(k), m_(m),
        mm_a_(pc.he, pc.encoder, pc.eval, PackingStrategy::kFeatureBased),
        mm_bt_(pc.he, pc.encoder, pc.eval, PackingStrategy::kFeatureBased) {
    pc_.keys.ensure_rotation_steps(mm_a_.rotation_steps(n_));
    pc_.keys.ensure_rotation_steps(mm_bt_.rotation_steps(m_));
    // The ct-ct dot products reduce over k slots with a BSGS rotate-sum.
    pc_.keys.ensure_rotation_steps(Evaluator::rotate_sum_steps(k_));
  }

  // Fully online: nothing to precompute.
  void offline(const std::string&, const MatI&, const MatI&) override {}

  // Everything online: the ct-ct cross term Ac*Bc plus two ct-pt terms and
  // one plaintext term.  Requires relin + power-of-two rotation keys.
  SharePair online(const std::string& step_name, const SharePair& a,
                   const SharePair& b) override;

 private:
  ProtocolContext& pc_;
  std::size_t n_, k_, m_;
  PackedMatmul mm_a_;
  PackedMatmul mm_bt_;
};

// The combined weight W_M = WE * Wqk * WE^T (ring, Wqk = wq_h * wk_h^T)
// that ChgsScores multiplies Enc(R0) by offline.  It depends on the model alone, so the
// model's set encodes it once.
MatI chgs_combined_weight(const ShareRing& ring, const MatI& we,
                          const MatI& wq_h, const MatI& wk_h);

// Combined FHGS for the attention scores of one head.
class ChgsScores {
 public:
  // we: vocab x d, pos: n x d (lambda), wq/wk: d x d head slices (d x dh).
  // Computes shares of (X*WE + pos) * wq * wk^T * (X*WE + pos)^T, n x n.
  // `w_m` is chgs_combined_weight(we, wq_h, wk_h) encoded tokens-first at
  // `tokens` tokens; it must outlive the object.
  ChgsScores(ProtocolContext& pc, std::size_t tokens, const MatI& we,
             const MatI& pos, const MatI& wq_h, const MatI& wk_h,
             const EncodedMatrix& w_m);

  // Offline: combined-weight precomputation + the Rc-dependent triple.
  // `r0` is the client's mask on the one-hot input X.
  void offline(const std::string& step_name, const MatI& r0);

  // Online: server holds d0 = X - R0; one interaction yields score shares.
  SharePair online(const std::string& step_name, const MatI& d0);

 private:
  ProtocolContext& pc_;
  std::size_t n_;
  MatI we_, pos_, wqk_;       // wqk = wq_h * wk_h^T (raw-domain ring product)
  const EncodedMatrix& w_m_;  // WE * Wqk * WE^T (ring), encoded
  PackedMatmul mm_;
  std::vector<Ciphertext> enc_r0_;
  MatI term4_client_;         // client share of R0*W_M*R0^T (offline)
  MatI term4_server_;         // server share (offline)
};

}  // namespace primer
