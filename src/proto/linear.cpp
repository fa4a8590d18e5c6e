#include "proto/linear.h"

#include "common/parallel.h"

namespace primer {

namespace {

// Adds (bias << frac) to every row of a server share, in the ring.
void add_bias_inplace(const ShareRing& ring, MatI& share,
                      const std::vector<std::int64_t>& bias,
                      const FixedPointFormat& fmt) {
  if (bias.empty()) return;
  for (std::size_t i = 0; i < share.rows(); ++i) {
    for (std::size_t j = 0; j < share.cols(); ++j) {
      share(i, j) = ring.reduce(share(i, j) + (bias[j] << fmt.frac_bits));
    }
  }
}

}  // namespace

void HgsLinear::offline(const std::string& step_name, const MatI& mask) {
  pc_.step("offline", step_name, [&] {
    // Client: encrypt the mask Rc, packed per the layer's strategy.
    const auto packed = mm_.encrypt_input(pc_.ring.reduce(mask), pc_.enc);
    pc_.send_cts(Party::kClient, packed);

    // Server: homomorphic Rc * W, then mask with fresh Rs.
    const auto received = pc_.recv_cts(Party::kServer);
    PackedMatmulStats stats;
    auto result = mm_.multiply(received, w_enc_, pc_.gk, &stats);
    rs_ = pc_.ring.random(pc_.server_rng, tokens_, w_.cols());
    // Subtract Rs slotwise: encode Rs in the output layout of the matmul.
    // Rs is sampled above on the calling thread; masking each result
    // ciphertext is pure arithmetic and runs in parallel.
    const std::size_t row = pc_.encoder.row_size();
    const std::size_t fpc = row / tokens_;
    parallel_for(0, result.size(), [&](std::size_t rcname) {
      std::vector<u64> slots(row, 0);
      for (std::size_t b = 0; b < fpc; ++b) {
        const std::size_t o = rcname * fpc + b;
        if (o >= w_.cols()) break;
        for (std::size_t i = 0; i < tokens_; ++i) {
          slots[b * tokens_ + i] = static_cast<u64>(rs_(i, o));
        }
      }
      pc_.eval.sub_plain_inplace(result[rcname], pc_.encoder.encode(slots));
    });
    pc_.send_cts(Party::kServer, result);

    // Client: decrypt Rc*W - Rs.
    const auto back = pc_.recv_cts(Party::kClient);
    client_share_ = mm_.decrypt_result(back, pc_.dec, tokens_, w_.cols());
  });
}

SharePair HgsLinear::online(const std::string& step_name,
                            const SharePair& x) const {
  SharePair out;
  pc_.step("online", step_name, [&] {
    // Server: (X - Rc) * W + Rs + bias — all unencrypted.
    MatI ss = pc_.ring.mul(pc_.ring.reduce(x.server), pc_.ring.reduce(w_));
    ss = pc_.ring.add(ss, rs_);
    add_bias_inplace(pc_.ring, ss, bias_, pc_.fmt);
    out.server = std::move(ss);
    out.client = client_share_;
  });
  return out;
}

SharePair BaseLinear::online(const std::string& step_name,
                             const SharePair& x) const {
  SharePair out;
  pc_.step("online", step_name, [&] {
    // Client encrypts its share and ships it.
    const auto packed = mm_.encrypt_input(pc_.ring.reduce(x.client), pc_.enc);
    pc_.send_cts(Party::kClient, packed);

    // Server: Enc(Xc)*W + Xs*W - Rs.
    const auto received = pc_.recv_cts(Party::kServer);
    PackedMatmulStats stats;
    auto result = mm_.multiply(received, w_enc_, pc_.gk, &stats);
    const MatI plain_part =
        pc_.ring.mul(pc_.ring.reduce(x.server), pc_.ring.reduce(w_));
    MatI rs = pc_.ring.random(pc_.server_rng, tokens_, w_.cols());
    const std::size_t row = pc_.encoder.row_size();
    const std::size_t fpc = row / tokens_;
    // Per-column share reconstruction: every result ciphertext gains its
    // own slice of Xs*W - Rs, independently of the others.
    parallel_for(0, result.size(), [&](std::size_t rcname) {
      std::vector<u64> plus(row, 0);
      for (std::size_t b = 0; b < fpc; ++b) {
        const std::size_t o = rcname * fpc + b;
        if (o >= w_.cols()) break;
        for (std::size_t i = 0; i < tokens_; ++i) {
          plus[b * tokens_ + i] = static_cast<u64>(
              pc_.ring.reduce(plain_part(i, o) - rs(i, o)));
        }
      }
      pc_.eval.add_plain_inplace(result[rcname], pc_.encoder.encode(plus));
    });
    pc_.send_cts(Party::kServer, result);

    // Client decrypts its share; server keeps Rs (+ bias).
    const auto back = pc_.recv_cts(Party::kClient);
    out.client = mm_.decrypt_result(back, pc_.dec, tokens_, w_.cols());
    add_bias_inplace(pc_.ring, rs, bias_, pc_.fmt);
    out.server = std::move(rs);
  });
  return out;
}

}  // namespace primer
