#include "proto/packing.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "common/fixed_point.h"
#include "common/parallel.h"

namespace primer {

namespace {

// The Horner-style accumulation
//     S = rot(S, step) + in * P'_k
// performs every plaintext multiplication on the *fresh* input ciphertext
// (bounded noise) while executing exactly the K-1 Rotate operations the
// paper's Fig. 6 loops count — one alignment per feature block
// (tokens-first) or per slot (feature-based).  P'_k is the alignment mask
// pre-rotated (a free plaintext operation on the server).
std::vector<u64> rotate_right_plain(const std::vector<u64>& v,
                                    std::size_t amount, std::size_t row) {
  std::vector<u64> out(v.size(), 0);
  for (std::size_t s = 0; s < row; ++s) {
    out[(s + amount) % row] = v[s];
  }
  return out;
}

bool all_zero(const std::vector<u64>& v) {
  for (const u64 x : v) {
    if (x != 0) return false;
  }
  return true;
}

// Single source of truth for a product's BSGS schedule: multiply(),
// encode(), rotation_steps() and packed_matmul_counts() all read it, so
// the masks, the key set, the execution and the cost model cannot
// disagree.
//
// Alignment k moves input block (b + k) mod `period` into output block b
// (tokens-first: period = fpc blocks of `tokens` slots; feature-based:
// period = row blocks of one slot).  When a tokens-first product's
// d_in + d_out - 1 < fpc, it has one input and one output ciphertext, and
// only k in [-(d_out-1), d_in-1] puts a feature into a read output block;
// it walks that window when the window needs strictly fewer key switches
// than the whole period [0, period), which every other product runs.
// (Near the boundary no baby of the window is the zero alignment, so the
// window can cost one more.)  The window's alignment k = lo + h*n1 + g is
// baby g (a hoisted rotation by (lo+g)*step) under giant h (h rotations by
// n1*step).
struct BsgsSchedule {
  std::size_t period = 1;          // distinct alignments of the packing
  int lo = 0;                      // the window is lo, ..., lo+size-1
  std::size_t size = 1;
  std::size_t n1 = 1, n2 = 1;
  int step = 1;                    // slots per alignment
  std::vector<int> baby;           // (lo+g)*step for g in [0, n1)
  std::size_t baby_rotations = 0;  // the nonzero ones: key-switches

  // Key switches of one input and one output ciphertext.
  std::size_t key_switches() const { return baby_rotations + n2 - 1; }
};

BsgsSchedule make_schedule(std::size_t period, int lo, std::size_t size,
                           int step) {
  BsgsSchedule s;
  s.period = period;
  s.lo = lo;
  s.size = size;
  s.step = step;
  std::tie(s.n1, s.n2) = bsgs_split(s.size);
  for (std::size_t g = 0; g < s.n1; ++g) {
    const int k = s.lo + static_cast<int>(g);
    s.baby.push_back(k * s.step);
    if (k != 0) ++s.baby_rotations;
  }
  return s;
}

BsgsSchedule bsgs_schedule(PackingStrategy strategy, std::size_t tokens,
                           std::size_t d_in, std::size_t d_out,
                           std::size_t row) {
  const bool tokens_first = strategy == PackingStrategy::kTokensFirst;
  const int step = tokens_first ? static_cast<int>(tokens) : 1;
  const std::size_t period =
      tokens_first ? std::max<std::size_t>(1, row / tokens) : row;
  BsgsSchedule full = make_schedule(period, 0, period, step);
  if (tokens_first && d_out > 0 && d_in + d_out <= period) {
    BsgsSchedule window = make_schedule(
        period, -static_cast<int>(d_out - 1), d_in + d_out - 1, step);
    if (window.key_switches() < full.key_switches()) return window;
  }
  return full;
}

}  // namespace

std::pair<std::size_t, std::size_t> bsgs_split(std::size_t iters) {
  if (iters <= 1) return {1, 1};
  std::size_t n1 = 1;
  while (n1 * n1 < iters) ++n1;
  const std::size_t n2 = (iters + n1 - 1) / n1;
  return {n1, n2};
}

PackedMatmulStats packed_matmul_counts(PackingStrategy strategy,
                                       std::size_t tokens, std::size_t d_in,
                                       std::size_t d_out, std::size_t slots) {
  // Key-switch accounting follows the BSGS execution: per input ciphertext,
  // the nonzero hoisted baby rotations shared by every output chain, plus
  // n2-1 giant rotations per (input, output) chain — n1+n2 key-switches
  // per rotation set instead of the n1*n2 of the sequential walk.
  PackedMatmulStats s;
  const std::size_t m = slots;
  const BsgsSchedule sched = bsgs_schedule(strategy, tokens, d_in, d_out, m);
  if (strategy == PackingStrategy::kTokensFirst) {
    const std::size_t fpc = sched.period;
    s.input_ciphertexts = (d_in + fpc - 1) / fpc;
    s.output_ciphertexts = (d_out + fpc - 1) / fpc;
    // One multiply per alignment whose mask can be nonzero: an input
    // ciphertext holding d_in' features meets an output ciphertext holding
    // d_out' outputs at min(fpc, d_in' + d_out' - 1) alignments.
    for (std::size_t ci = 0; ci < s.input_ciphertexts; ++ci) {
      const std::size_t in = std::min(fpc, d_in - ci * fpc);
      for (std::size_t oc = 0; oc < s.output_ciphertexts; ++oc) {
        const std::size_t out = std::min(fpc, d_out - oc * fpc);
        s.plain_mults += std::min(fpc, in + out - 1);
      }
    }
  } else {
    s.input_ciphertexts = (tokens * d_in + m - 1) / m;
    s.output_ciphertexts = (tokens * d_out + m - 1) / m;
    s.plain_mults = s.input_ciphertexts * m * s.output_ciphertexts;
  }
  s.baby_rotations = s.input_ciphertexts * sched.baby_rotations;
  s.giant_rotations =
      s.input_ciphertexts * s.output_ciphertexts * (sched.n2 - 1);
  s.rotations = s.baby_rotations + s.giant_rotations;
  s.naive_rotations = s.input_ciphertexts * (sched.period - 1);
  s.adds = s.plain_mults;
  return s;
}

PackedMatmul::PackedMatmul(const HeContext& ctx, const BatchEncoder& encoder,
                           const Evaluator& eval, PackingStrategy strategy)
    : ctx_(ctx), encoder_(encoder), eval_(eval), strategy_(strategy) {}

std::vector<int> PackedMatmul::rotation_steps(std::size_t tokens,
                                              std::size_t d_in,
                                              std::size_t d_out) const {
  const BsgsSchedule s =
      bsgs_schedule(strategy_, tokens, d_in, d_out, encoder_.row_size());
  std::vector<int> steps;
  for (const int b : s.baby) {
    if (b != 0) steps.push_back(b);
  }
  if (s.n2 > 1) steps.push_back(static_cast<int>(s.n1) * s.step);
  return steps;
}

std::vector<int> PackedMatmul::rotation_steps(std::size_t tokens) const {
  const std::size_t row = encoder_.row_size();
  return rotation_steps(tokens, row, row);
}

std::vector<Ciphertext> PackedMatmul::encrypt_input(
    const MatI& x_ring, const Encryptor& enc) const {
  const std::size_t row = encoder_.row_size();
  const std::size_t n = x_ring.rows();
  const std::size_t d_in = x_ring.cols();
  std::vector<Ciphertext> out;

  if (strategy_ == PackingStrategy::kTokensFirst) {
    const std::size_t fpc = row / n;
    if (fpc == 0) {
      throw std::invalid_argument("tokens-first: tokens exceed slot row");
    }
    const std::size_t cts = (d_in + fpc - 1) / fpc;
    for (std::size_t ci = 0; ci < cts; ++ci) {
      std::vector<u64> slots(row, 0);
      for (std::size_t b = 0; b < fpc; ++b) {
        const std::size_t j = ci * fpc + b;
        if (j >= d_in) break;
        for (std::size_t i = 0; i < n; ++i) {
          slots[b * n + i] = static_cast<u64>(x_ring(i, j));
        }
      }
      out.push_back(enc.encrypt(encoder_.encode(slots)));
    }
  } else {
    const std::size_t total = n * d_in;
    const std::size_t cts = (total + row - 1) / row;
    for (std::size_t ci = 0; ci < cts; ++ci) {
      std::vector<u64> slots(row, 0);
      for (std::size_t s = 0; s < row; ++s) {
        const std::size_t l = ci * row + s;  // row-major (token, feature)
        if (l >= total) break;
        slots[s] = static_cast<u64>(x_ring(l / d_in, l % d_in));
      }
      out.push_back(enc.encrypt(encoder_.encode(slots)));
    }
  }
  return out;
}

std::size_t EncodedMatrix::nonzero_masks() const {
  return static_cast<std::size_t>(
      std::count_if(masks.begin(), masks.end(),
                    [](const NttPlaintext& m) { return !m.empty(); }));
}

EncodedMatrix PackedMatmul::encode(const MatI& w_raw,
                                   std::size_t tokens) const {
  const std::size_t row = encoder_.row_size();
  const std::size_t n = tokens;
  if (n == 0 || n > row) {
    throw std::invalid_argument("PackedMatmul: tokens must be in [1, row]");
  }
  const std::size_t d_in = w_raw.rows();
  const std::size_t d_out = w_raw.cols();
  const std::size_t fpc = row / n;  // blocks per ciphertext
  const std::uint64_t t = ctx_.t();
  const bool tokens_first = strategy_ == PackingStrategy::kTokensFirst;
  const BsgsSchedule sched = bsgs_schedule(strategy_, n, d_in, d_out, row);

  EncodedMatrix out;
  out.strategy = strategy_;
  out.tokens = n;
  out.d_in = d_in;
  out.d_out = d_out;
  out.input_cts = tokens_first ? (d_in + fpc - 1) / fpc
                               : (n * d_in + row - 1) / row;
  out.output_cts = (d_out + fpc - 1) / fpc;
  out.window = sched.size;
  out.q = ctx_.params().q;
  out.t = t;
  out.masks.resize(out.input_cts * out.output_cts * out.window);

  // Ring-encoded weights (centered fixed point lifted into Z_t).
  std::vector<std::vector<u64>> w_ring(d_in, std::vector<u64>(d_out));
  for (std::size_t j = 0; j < d_in; ++j) {
    for (std::size_t o = 0; o < d_out; ++o) {
      w_ring[j][o] = fp_to_ring(w_raw(j, o), t);
    }
  }
  // Window entry a is alignment lo + a; since -lo < period, its residue
  // mod period is (a + lo_shift) % period in unsigned arithmetic.
  const std::size_t lo_shift =
      sched.period - static_cast<std::size_t>(-sched.lo);
  const std::size_t step = static_cast<std::size_t>(sched.step);

  // Every mask is independent: build, pre-rotate, encode and transform
  // them all in parallel.
  parallel_for(0, out.masks.size(), [&](std::size_t idx) {
    const std::size_t a = idx % out.window;
    const std::size_t oc = idx / out.window % out.output_cts;
    const std::size_t ci = idx / out.window / out.output_cts;
    const std::size_t k = (a + lo_shift) % sched.period;
    // Mask P_k: target slot layout is block b <-> output o = oc*fpc + b,
    // slot b*n + i <-> token i.
    std::vector<u64> mask(row, 0);
    if (tokens_first) {
      for (std::size_t b = 0; b < fpc; ++b) {
        const std::size_t o = oc * fpc + b;
        if (o >= d_out) break;
        const std::size_t j = ci * fpc + ((b + k) % fpc);
        if (j >= d_in || j >= (ci + 1) * fpc) continue;
        for (std::size_t i = 0; i < n; ++i) {
          mask[b * n + i] = w_ring[j][o];
        }
      }
    } else {
      for (std::size_t tl = 0; tl < row; ++tl) {
        const std::size_t i = tl % n;
        const std::size_t o = oc * fpc + tl / n;
        if (o >= d_out) continue;
        const std::size_t src = (tl + k) % row;
        const std::size_t l = ci * row + src;
        if (l >= n * d_in) continue;
        if (l / d_in != i) continue;
        mask[tl] = w_ring[l % d_in][o];
      }
    }
    if (all_zero(mask)) return;
    // Q_{h,g}: P_k pre-rotated right by the giant offset h*n1*step.
    const std::size_t pre_rot = a / sched.n1 * sched.n1 * step % row;
    out.masks[idx] = eval_.transform_to_ntt(
        encoder_.encode(rotate_right_plain(mask, pre_rot, row)));
  });
  return out;
}

std::vector<Ciphertext> PackedMatmul::multiply(
    const std::vector<Ciphertext>& packed, const EncodedMatrix& w,
    const GaloisKeys& gk, PackedMatmulStats* stats) const {
  if (w.q != ctx_.params().q || w.t != ctx_.t()) {
    throw std::invalid_argument(
        "PackedMatmul: matrix encoded for another HE profile");
  }
  if (w.strategy != strategy_) {
    throw std::invalid_argument(
        "PackedMatmul: matrix encoded for another packing");
  }
  if (packed.size() != w.input_cts) {
    throw std::invalid_argument(
        "PackedMatmul: input ciphertexts do not match the matrix");
  }
  const std::size_t row = encoder_.row_size();
  const std::size_t out_cts = w.output_cts;
  const BsgsSchedule sched =
      bsgs_schedule(strategy_, w.tokens, w.d_in, w.d_out, row);
  const std::size_t n1 = sched.n1;
  const std::size_t n2 = sched.n2;
  const int step = sched.step;

  PackedMatmulStats local;
  local.input_ciphertexts = packed.size();
  local.output_ciphertexts = out_cts;

  // Baby-step/giant-step over the window's alignments k = lo + h*n1 + g:
  //   result = sum_k rot_{k*step}(in) * P_k
  //          = sum_h rot_{h*n1*step}( sum_g rot_{(lo+g)*step}(in) * Q_{h,g} )
  // with Q_{h,g} = P_k pre-rotated right by h*n1*step (encode() built
  // them).  The n1 baby rotations of each input ciphertext are HOISTED
  // (one digit decomposition for the whole set) and shared by every output
  // chain; each chain then pays n2-1 giant rotations of its partial sums —
  // about n1+n2 key-switches per input ciphertext instead of the n1*n2 of
  // the sequential Horner walk.  The summands are exact ring values, so
  // the decrypted output is identical to the sequential order's.
  std::vector<Ciphertext> result(out_cts);
  std::vector<std::uint8_t> result_set(out_cts, 0);
  std::vector<PackedMatmulStats> oc_stats(out_cts);

  for (std::size_t ci = 0; ci < packed.size(); ++ci) {
    // What the sequential Horner walk would have paid for this ciphertext.
    local.naive_rotations += sched.period - 1;
    // Baby rotations rot_{(lo+g)*step}(in) for g = 0..n1-1, hoisted; the
    // zero step is a copy of the input.
    const auto rots = eval_.rotate_rows_many(packed[ci], sched.baby, gk);
    local.rotations += sched.baby_rotations;
    local.baby_rotations += sched.baby_rotations;

    // Each output ciphertext accumulates an independent giant-step chain
    // over the shared baby rotations; per-oc stats merge in order below so
    // tallies match the serial loop exactly.
    parallel_for(0, out_cts, [&](std::size_t oc) {
      Ciphertext acc;
      bool acc_set = false;
      for (std::size_t down = 0; down < n2; ++down) {
        const std::size_t h = n2 - 1 - down;
        if (acc_set) {
          // Align the previously accumulated giant blocks.
          eval_.rotate_rows_inplace(acc, static_cast<int>(n1) * step, gk);
          ++oc_stats[oc].rotations;
          ++oc_stats[oc].giant_rotations;
        }
        for (std::size_t g = 0; g < n1; ++g) {
          const std::size_t a = h * n1 + g;
          if (a >= sched.size) break;
          const NttPlaintext& mask = w.mask(ci, oc, a);
          if (mask.empty()) continue;
          if (acc_set) {
            // Fused acc += ct * pt: no ciphertext copy, one limb pass.
            eval_.multiply_plain_accumulate(acc, rots[g], mask);
            ++oc_stats[oc].plain_mults;
            ++oc_stats[oc].adds;
          } else {
            Ciphertext term = rots[g];
            eval_.multiply_plain_inplace(term, mask);
            ++oc_stats[oc].plain_mults;
            acc = std::move(term);
            acc_set = true;
          }
        }
      }
      if (!acc_set) return;
      if (result_set[oc] != 0) {
        eval_.add_inplace(result[oc], acc);
        ++oc_stats[oc].adds;
      } else {
        result[oc] = std::move(acc);
        result_set[oc] = 1;
      }
    });
  }
  for (const auto set : result_set) {
    if (set == 0) {
      throw std::runtime_error("PackedMatmul: empty output ciphertext");
    }
  }

  for (const auto& s : oc_stats) {
    local.rotations += s.rotations;
    local.giant_rotations += s.giant_rotations;
    local.plain_mults += s.plain_mults;
    local.adds += s.adds;
  }
  if (stats != nullptr) *stats += local;
  return result;
}

MatI PackedMatmul::decrypt_result(const std::vector<Ciphertext>& result,
                                  const Decryptor& dec, std::size_t tokens,
                                  std::size_t d_out) const {
  const std::size_t row = encoder_.row_size();
  MatI out(tokens, d_out);
  const std::size_t per_ct = row / tokens;  // output blocks per ciphertext
  // Each result ciphertext decrypts into its own disjoint column block.
  parallel_for(0, result.size(), [&](std::size_t rc) {
    const auto slots = encoder_.decode(dec.decrypt(result[rc]));
    for (std::size_t b = 0; b < per_ct; ++b) {
      const std::size_t o = rc * per_ct + b;
      if (o >= d_out) break;
      for (std::size_t i = 0; i < tokens; ++i) {
        out(i, o) = static_cast<std::int64_t>(slots[b * tokens + i]);
      }
    }
  });
  return out;
}

}  // namespace primer
