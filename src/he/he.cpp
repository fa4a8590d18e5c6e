#include "he/he.h"

#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/env.h"
#include "common/parallel.h"

namespace primer {

// ---------------------------------------------------------------------------
// KeyGenerator
// ---------------------------------------------------------------------------

KeyGenerator::KeyGenerator(const HeContext& ctx, Rng& rng)
    : ctx_(ctx), rng_(rng) {
  RnsPoly s = ctx_.sample_ternary(rng_);
  ctx_.to_ntt(s);
  sk_.s = std::move(s);
}

KSwitchKey KeyGenerator::make_kswitch_key(const RnsPoly& target_ntt,
                                          std::uint32_t decomp_bits) {
  // One key pair per gadget digit (i, d):
  //   b = -(a*s + t*e) + 2^{shift} * P_i * target
  // where P_i is 1 mod q_i and 0 mod q_j — so the target term touches only
  // RNS component i, scaled by the digit's base power.
  KSwitchKey key;
  key.decomp_bits = decomp_bits;
  for (const auto& d : ctx_.decomp_layout(decomp_bits)) {
    RnsPoly a = ctx_.sample_uniform(rng_);
    ctx_.to_ntt(a);
    RnsPoly e = ctx_.sample_error(rng_);
    ctx_.to_ntt(e);
    ctx_.scalar_multiply_inplace(e, ctx_.t());
    RnsPoly b = ctx_.multiply(a, sk_.s);
    ctx_.add_inplace(b, e);
    ctx_.negate_inplace(b);
    const u64 qi = ctx_.q(d.limb);
    const u64 scale = d.shift == 0 ? 1 : (u64{1} << d.shift) % qi;
    u64* bl = b.limb(d.limb);
    const u64* tl = target_ntt.limb(d.limb);
    for (std::size_t j = 0; j < ctx_.degree(); ++j) {
      bl[j] = add_mod(bl[j], mul_mod(scale, tl[j], qi), qi);
    }
    append_kswitch_digit(ctx_, key, std::move(b), std::move(a));
  }
  return key;
}

namespace {

// Elementwise Shoup quotients of a key polynomial, one pass that also
// range-checks every residue against its modulus.
RnsPoly shoup_table(const HeContext& ctx, const RnsPoly& key_part) {
  RnsPoly out(key_part.rns_size(), key_part.degree(), key_part.ntt_form);
  for (std::size_t j = 0; j < key_part.rns_size(); ++j) {
    const u64 qj = ctx.q(j);
    // The quotient scale follows the kernel set that will consume this
    // table in shoup_mul_acc_lazy2 (64-bit convention for scalar/avx2/
    // avx512, 52-bit for avx512ifma).
    const unsigned shift = ctx.kernels(j).shoup_shift;
    const u64* src = key_part.limb(j);
    u64* dst = out.limb(j);
    for (std::size_t x = 0; x < key_part.degree(); ++x) {
      if (src[x] >= qj) {
        throw std::out_of_range("key residue " + std::to_string(src[x]) +
                                " of limb " + std::to_string(j) +
                                " is not below its modulus");
      }
      dst[x] = static_cast<u64>((static_cast<u128>(src[x]) << shift) / qj);
    }
  }
  return out;
}

}  // namespace

void append_kswitch_digit(const HeContext& ctx, KSwitchKey& key, RnsPoly b,
                          RnsPoly a) {
  key.b_shoup.push_back(shoup_table(ctx, b));
  key.a_shoup.push_back(shoup_table(ctx, a));
  key.b.push_back(std::move(b));
  key.a.push_back(std::move(a));
}

RelinKey KeyGenerator::make_relin_key() {
  RelinKey rk;
  const RnsPoly s2 = ctx_.multiply(sk_.s, sk_.s);
  // Full-width CRT digits: relinearization follows a ciphertext multiply
  // whose noise already dwarfs the key-switch term, so the cheaper layout
  // (k digits instead of ~2k) wins.
  rk.key = make_kswitch_key(s2, 0);
  return rk;
}

void KeyGenerator::add_galois_key(GaloisKeys& keys, u64 elt) {
  if (keys.has(elt)) return;
  // Target key is s(x^elt).
  RnsPoly s_coeff = sk_.s;
  ctx_.to_coeff(s_coeff);
  RnsPoly s_gal;
  ctx_.apply_galois_coeff(s_coeff, elt, s_gal);
  ctx_.to_ntt(s_gal);
  // Sub-digit keys: rotated ciphertexts get multiplied by plaintext masks
  // in the BSGS matmuls, so the rotation's additive key-switch noise must
  // stay ~t*n below q — half-width digits buy that headroom.
  keys.keys.emplace(elt, make_kswitch_key(s_gal, ctx_.galois_decomp_bits()));
}

GaloisKeys KeyGenerator::make_galois_keys(const std::vector<int>& steps) {
  GaloisKeys gk;
  for (int s : steps) add_galois_key(gk, ctx_.galois_elt_from_step(s));
  return gk;
}

// ---------------------------------------------------------------------------
// Encryptor
// ---------------------------------------------------------------------------

Encryptor::Encryptor(const HeContext& ctx, const SecretKey& sk, Rng& rng)
    : ctx_(ctx), sk_(sk), rng_(rng) {}

Ciphertext Encryptor::encrypt(const Plaintext& pt) const {
  RnsPoly m = ctx_.lift_plaintext(pt);
  ctx_.to_ntt(m);

  // Symmetric: c1 = a (uniform), c0 = -(a*s) + t*e + m.
  RnsPoly a = ctx_.sample_uniform(rng_);
  ctx_.to_ntt(a);
  RnsPoly e = ctx_.sample_error(rng_);
  ctx_.to_ntt(e);
  ctx_.scalar_multiply_inplace(e, ctx_.t());
  RnsPoly c0 = ctx_.multiply(a, sk_.s);
  ctx_.negate_inplace(c0);
  ctx_.add_inplace(c0, e);
  ctx_.add_inplace(c0, m);
  Ciphertext ct;
  ct.parts.push_back(std::move(c0));
  ct.parts.push_back(std::move(a));
  return ct;
}

// ---------------------------------------------------------------------------
// Decryptor
// ---------------------------------------------------------------------------

Decryptor::Decryptor(const HeContext& ctx, const SecretKey& sk)
    : ctx_(ctx),
      sk_(sk),
      floor_bits_(env_double("PRIMER_NOISE_FLOOR_BITS", 0.0, 0.0, 1e6)) {}

RnsPoly Decryptor::dot_with_key_powers(const Ciphertext& ct) const {
  if (ct.empty()) throw std::invalid_argument("decrypt: empty ciphertext");
  RnsPoly acc = ct.parts[0];
  if (!acc.ntt_form) ctx_.to_ntt(acc);
  RnsPoly s_power = sk_.s;
  for (std::size_t i = 1; i < ct.parts.size(); ++i) {
    RnsPoly part = ct.parts[i];
    if (!part.ntt_form) ctx_.to_ntt(part);
    ctx_.multiply_inplace(part, s_power);
    ctx_.add_inplace(acc, part);
    if (i + 1 < ct.parts.size()) {
      s_power = ctx_.multiply(s_power, sk_.s);
    }
  }
  ctx_.to_coeff(acc);
  return acc;
}

Decryptor::Decryption Decryptor::decrypt_and_measure(
    const Ciphertext& ct) const {
  const RnsPoly acc = dot_with_key_powers(ct);
  const std::size_t n = ctx_.degree();
  const std::size_t k = ctx_.rns_size();
  Decryption out;
  out.pt.coeffs.resize(n);
  // Per-coefficient CRT composition is independent pure arithmetic.  Each
  // chunk keeps its largest noise, and the chunks merge under one lock.
  U256 max_noise;
  std::mutex max_mu;
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> residues(k);
    U256 noise, chunk_max;
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < k; ++i) residues[i] = acc.limb(i)[j];
      out.pt.coeffs[j] = ctx_.compose_center_mod_t(residues, noise);
      if (chunk_max < noise) chunk_max = noise;
    }
    const std::lock_guard<std::mutex> lock(max_mu);
    if (max_noise < chunk_max) max_noise = chunk_max;
  });
  const double noise = max_noise.to_double();
  out.budget_bits =
      ctx_.params().log2_q() - 1.0 - (noise > 0.0 ? std::log2(noise) : 0.0);
  return out;
}

Plaintext Decryptor::decrypt(const Ciphertext& ct) const {
  Decryption d = decrypt_and_measure(ct);
  // A refused decryption's margin still feeds the telemetry: the engine's
  // partial result reports how close to the cliff it died.
  record_margin(d.budget_bits);
  if (d.budget_bits < floor_bits_ + 0.01) {
    throw NoiseBudgetExhausted(d.budget_bits);
  }
  return std::move(d.pt);
}

double Decryptor::noise_budget(const Ciphertext& ct) const {
  return decrypt_and_measure(ct).budget_bits;
}

void Decryptor::record_margin(double bits) const {
  double cur = min_margin_.load(std::memory_order_relaxed);
  while (bits < cur && !min_margin_.compare_exchange_weak(
                           cur, bits, std::memory_order_relaxed)) {
  }
}

double Decryptor::take_min_margin() const {
  return min_margin_.exchange(std::numeric_limits<double>::infinity(),
                              std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

Evaluator::Evaluator(const HeContext& ctx) : ctx_(ctx) {}

void Evaluator::add_inplace(Ciphertext& a, const Ciphertext& b) const {
  while (a.parts.size() < b.parts.size()) {
    a.parts.emplace_back(ctx_.rns_size(), ctx_.degree(), true);
  }
  for (std::size_t i = 0; i < b.parts.size(); ++i) {
    ctx_.add_inplace(a.parts[i], b.parts[i]);
  }
}

void Evaluator::sub_inplace(Ciphertext& a, const Ciphertext& b) const {
  while (a.parts.size() < b.parts.size()) {
    a.parts.emplace_back(ctx_.rns_size(), ctx_.degree(), true);
  }
  for (std::size_t i = 0; i < b.parts.size(); ++i) {
    ctx_.sub_inplace(a.parts[i], b.parts[i]);
  }
}

void Evaluator::negate_inplace(Ciphertext& a) const {
  for (auto& p : a.parts) ctx_.negate_inplace(p);
}

void Evaluator::add_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = ctx_.lift_plaintext(pt);
  ctx_.to_ntt(m);
  ctx_.add_inplace(a.parts[0], m);
}

void Evaluator::sub_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = ctx_.lift_plaintext(pt);
  ctx_.to_ntt(m);
  ctx_.sub_inplace(a.parts[0], m);
}

NttPlaintext Evaluator::transform_to_ntt(const Plaintext& pt) const {
  NttPlaintext out{ctx_.lift_plaintext(pt)};
  ctx_.to_ntt(out.poly);
  return out;
}

namespace {

void check_operand(const Ciphertext& a, const NttPlaintext& pt) {
  if (pt.empty() || !pt.poly.ntt_form ||
      (!a.parts.empty() && !a.parts[0].same_shape(pt.poly))) {
    throw std::invalid_argument(
        "multiply_plain: operand is not an NTT-form plaintext of this ring");
  }
}

}  // namespace

void Evaluator::multiply_plain_inplace(Ciphertext& a,
                                       const NttPlaintext& pt) const {
  check_operand(a, pt);
  ++counters_.plain_mults;
  for (auto& part : a.parts) ctx_.multiply_inplace(part, pt.poly);
}

void Evaluator::multiply_plain_inplace(Ciphertext& a,
                                       const Plaintext& pt) const {
  multiply_plain_inplace(a, transform_to_ntt(pt));
}

void Evaluator::multiply_plain_accumulate(Ciphertext& acc, const Ciphertext& a,
                                          const Plaintext& pt) const {
  multiply_plain_accumulate(acc, a, transform_to_ntt(pt));
}

void Evaluator::multiply_plain_accumulate(Ciphertext& acc, const Ciphertext& a,
                                          const NttPlaintext& pt) const {
  // acc += a * pt, fused: the limb product streams straight into acc with
  // no temporary ciphertext copy and no second add pass — the inner loop of
  // the packed matmul's Horner chains.
  check_operand(a, pt);
  ++counters_.plain_mults;
  while (acc.parts.size() < a.parts.size()) {
    acc.parts.emplace_back(ctx_.rns_size(), ctx_.degree(), true);
  }
  for (std::size_t i = 0; i < a.parts.size(); ++i) {
    ctx_.multiply_accumulate(acc.parts[i], a.parts[i], pt.poly);
  }
}

Ciphertext Evaluator::multiply(const Ciphertext& a, const Ciphertext& b) const {
  ++counters_.ct_mults;
  if (a.size() != 2 || b.size() != 2) {
    throw std::invalid_argument("Evaluator::multiply: need size-2 operands");
  }
  Ciphertext out;
  // (a0, a1) x (b0, b1) -> (a0 b0, a0 b1 + a1 b0, a1 b1)
  out.parts.push_back(ctx_.multiply(a.parts[0], b.parts[0]));
  RnsPoly mid = ctx_.multiply(a.parts[0], b.parts[1]);
  RnsPoly mid2 = ctx_.multiply(a.parts[1], b.parts[0]);
  ctx_.add_inplace(mid, mid2);
  out.parts.push_back(std::move(mid));
  out.parts.push_back(ctx_.multiply(a.parts[1], b.parts[1]));
  return out;
}

// ---------------------------------------------------------------------------
// HoistedKeySwitch
// ---------------------------------------------------------------------------

HoistedKeySwitch::HoistedKeySwitch(const HeContext& ctx, const RnsPoly& c,
                                   std::uint32_t decomp_bits)
    : ctx_(ctx),
      k_(ctx.rns_size()),
      n_(ctx.degree()),
      decomp_bits_(decomp_bits) {
  if (c.rns_size() != k_ || c.degree() != n_) {
    throw std::invalid_argument("HoistedKeySwitch: shape mismatch");
  }
  const auto layout = ctx_.decomp_layout(decomp_bits);
  digit_count_ = layout.size();
  digits_ = PolyArena::local().checkout(digit_count_ * k_ * n_);
  // Coefficient-form source limbs: NTT-form input (every ciphertext
  // polynomial in this library) pays one inverse pass; coefficient-form
  // input is used directly.  inverse(forward(x)) == x exactly, so both
  // entry forms produce bit-identical digits.
  u64* base = digits_.data();
  PolyArena::Scratch coeff;
  const RnsPoly* coeff_src = &c;
  if (c.ntt_form) {
    coeff = PolyArena::local().checkout(k_ * n_);
    u64* cbase = coeff.data();
    parallel_for(0, k_, n_ * 32, [&](std::size_t i) {
      std::memcpy(cbase + i * n_, c.limb(i), n_ * sizeof(u64));
      ctx_.ntt(i).inverse(cbase + i * n_);
    });
    coeff_src = nullptr;
  }
  const u64* cbase = coeff_src == nullptr ? coeff.data() : nullptr;
  auto limb_coeffs = [&](std::size_t i) {
    return cbase != nullptr ? cbase + i * n_ : coeff_src->limb(i);
  };
  // Digit transforms use the LAZY-OUTPUT forward NTT: the final [0, p)
  // correction sweep is skipped and digit limbs stay in [0, 4p).  Their
  // only consumer, shoup_mul_acc_lazy2, accepts any redundant residue (any
  // 64-bit value on the 64-convention tiers, anything below 2^52 on
  // avx512ifma, and 4p < 2^52 holds at its p < 2^50 dispatch bound), so
  // every gadget-digit transform drops one full pass over the polynomial.
  // Final key-switch outputs stay bit-identical to canonical digits: the
  // accumulated lanes are fully reduced by add_reduce2p, and
  // congruent-mod-p inputs land on the same canonical result.
  if (decomp_bits == 0) {
    // CRT digits: digit(i, j) = (c mod q_i) mod q_j.  The diagonal is the
    // residue itself — for NTT-form input its transform is limb i verbatim,
    // so only the k*(k-1) off-diagonal limbs pay a forward NTT.  When
    // q_i < 4*q_j (always, for same-width prime sets) the explicit
    // re-reduction folds into that transform for free: the lazy forward
    // butterflies accept any input below 4p (first-stage conditional
    // subtract), and since the NTT is linear mod q_j its output on the raw
    // residues is congruent to reducing first.  reduce_span covers the
    // general q_i >= 4*q_j case.
    parallel_for(0, k_ * k_, n_ * 40, [&](std::size_t u) {
      const std::size_t i = u / k_;
      const std::size_t j = u % k_;
      u64* dst = base + (i * k_ + j) * n_;
      if (i == j && c.ntt_form) {
        std::memcpy(dst, c.limb(i), n_ * sizeof(u64));
        return;
      }
      const u64* src = limb_coeffs(i);
      if (i == j ||
          static_cast<u128>(ctx_.q(i)) < (static_cast<u128>(ctx_.q(j)) << 2)) {
        std::memcpy(dst, src, n_ * sizeof(u64));
      } else {
        const Barrett& br = ctx_.barrett(j);
        ctx_.kernels(j).reduce_span(dst, src, n_, br.modulus(), br.ratio_hi());
      }
      ctx_.ntt(j).forward_lazy_out(dst);
    });
  } else {
    // Sub-digits: digit (i, shift) holds ((c mod q_i) >> shift) & mask —
    // values < 2^w < every q_j, so the same extraction is a valid residue
    // for all moduli and only the forward transforms remain.
    const u64 mask = (u64{1} << decomp_bits) - 1;
    parallel_for(0, layout.size() * k_, n_ * 40, [&](std::size_t u) {
      const std::size_t f = u / k_;
      const std::size_t j = u % k_;
      const u64* src = limb_coeffs(layout[f].limb);
      const std::uint32_t shift = layout[f].shift;
      u64* dst = base + (f * k_ + j) * n_;
      for (std::size_t x = 0; x < n_; ++x) {
        dst[x] = (src[x] >> shift) & mask;
      }
      ctx_.ntt(j).forward_lazy_out(dst);
    });
  }
}

void HoistedKeySwitch::apply(u64 elt, const KSwitchKey& key, RnsPoly& acc0,
                             RnsPoly& acc1) const {
  if (key.b.size() != digit_count_ || key.a.size() != digit_count_ ||
      key.decomp_bits != decomp_bits_) {
    throw std::invalid_argument(
        "HoistedKeySwitch::apply: key decomposition mismatch");
  }
  if (key.b_shoup.size() != digit_count_ ||
      key.a_shoup.size() != digit_count_) {
    throw std::invalid_argument(
        "HoistedKeySwitch::apply: key lacks its Shoup quotient tables");
  }
  const std::uint32_t* table =
      elt == 1 ? nullptr : ctx_.galois_ntt_table(elt).data();
  // Per limb j: accumulate the permuted-digit x key products Shoup-lazily —
  // each product lands in [0, 2p) division-free and one conditional
  // subtract keeps the running sum there.  Modular addition commutes
  // exactly, so results are independent of digit order and thread count.
  parallel_for(0, k_, n_ * 16 * digit_count_, [&](std::size_t j) {
    PolyArena& arena = PolyArena::local();
    const NttKernel& kern = ctx_.kernels(j);
    const u64 p = ctx_.q(j);
    auto perm = table != nullptr ? arena.checkout(n_) : PolyArena::Scratch();
    auto lane_b = arena.checkout(n_);
    auto lane_a = arena.checkout(n_);
    lane_b.zero();
    lane_a.zero();
    for (std::size_t f = 0; f < digit_count_; ++f) {
      const u64* d = digit(f, j);
      if (table != nullptr) {
        u64* dst = perm.data();
        for (std::size_t x = 0; x < n_; ++x) dst[x] = d[table[x]];
        d = dst;
      }
      kern.shoup_mul_acc_lazy2(lane_b.data(), lane_a.data(), d,
                               key.b[f].limb(j), key.b_shoup[f].limb(j),
                               key.a[f].limb(j), key.a_shoup[f].limb(j), n_,
                               p);
    }
    kern.add_reduce2p(acc0.limb(j), acc0.limb(j), lane_b.data(), n_, p);
    kern.add_reduce2p(acc1.limb(j), acc1.limb(j), lane_a.data(), n_, p);
  });
}

void Evaluator::key_switch(const RnsPoly& c, const KSwitchKey& key,
                           RnsPoly& acc0, RnsPoly& acc1) const {
  const HoistedKeySwitch hoist(ctx_, c, key.decomp_bits);
  hoist.apply(1, key, acc0, acc1);
}

void Evaluator::relinearize_inplace(Ciphertext& a, const RelinKey& rk) const {
  if (a.size() != 3) {
    throw std::invalid_argument("relinearize: expected 3-part ciphertext");
  }
  // c2 stays in NTT form: the key switch reuses its limbs as the digit
  // diagonal and only inverse-transforms once for the off-diagonal digits.
  key_switch(a.parts[2], rk.key, a.parts[0], a.parts[1]);
  a.parts.pop_back();
}

void Evaluator::apply_galois_inplace(Ciphertext& a, u64 elt,
                                     const GaloisKeys& gk) const {
  ++counters_.rotations;
  if (!gk.has(elt)) {
    throw std::invalid_argument("apply_galois: missing key for element " +
                                std::to_string(elt));
  }
  if (a.size() != 2) {
    throw std::invalid_argument("apply_galois: relinearize first");
  }
  // Hoisted data path even for a single rotation: c0 is permuted in NTT
  // form (no transforms at all), and c1's digit decomposition feeds the
  // lazy-accumulation key switch.  A rotation set built one step at a time
  // is therefore bit-identical to rotate_rows_many over the same steps.
  if (!a.parts[0].ntt_form) ctx_.to_ntt(a.parts[0]);
  if (!a.parts[1].ntt_form) ctx_.to_ntt(a.parts[1]);
  const KSwitchKey& key = gk.keys.at(elt);
  const HoistedKeySwitch hoist(ctx_, a.parts[1], key.decomp_bits);
  RnsPoly acc0;
  ctx_.apply_galois_ntt(a.parts[0], elt, acc0);
  RnsPoly acc1(ctx_.rns_size(), ctx_.degree(), true);
  hoist.apply(elt, key, acc0, acc1);
  a.parts[0] = std::move(acc0);
  a.parts[1] = std::move(acc1);
}

std::vector<Ciphertext> Evaluator::rotate_rows_many(
    const Ciphertext& a, const std::vector<int>& steps,
    const GaloisKeys& gk) const {
  if (a.size() != 2) {
    throw std::invalid_argument("rotate_rows_many: relinearize first");
  }
  const Ciphertext* src = &a;
  Ciphertext ntt_copy;
  if (!a.parts[0].ntt_form || !a.parts[1].ntt_form) {
    ntt_copy = a;
    ctx_.to_ntt(ntt_copy.parts[0]);
    ctx_.to_ntt(ntt_copy.parts[1]);
    src = &ntt_copy;
  }
  // Resolve elements and validate keys on the calling thread.  All keys in
  // the set must share one gadget layout — the hoisted decomposition is
  // built once for the whole set.
  std::vector<u64> elts(steps.size());
  std::uint32_t decomp_bits = 0;
  bool any_rotation = false;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    elts[s] = steps[s] == 0 ? 1 : ctx_.galois_elt_from_step(steps[s]);
    if (elts[s] == 1) continue;
    if (!gk.has(elts[s])) {
      throw std::invalid_argument(
          "rotate_rows_many: missing key for element " +
          std::to_string(elts[s]));
    }
    const std::uint32_t w = gk.keys.at(elts[s]).decomp_bits;
    if (any_rotation && w != decomp_bits) {
      throw std::invalid_argument(
          "rotate_rows_many: keys mix gadget decompositions");
    }
    decomp_bits = w;
    any_rotation = true;
  }
  // One decomposition for the whole set.
  const std::optional<HoistedKeySwitch> hoist =
      any_rotation
          ? std::make_optional<HoistedKeySwitch>(ctx_, src->parts[1],
                                                 decomp_bits)
          : std::nullopt;
  std::vector<Ciphertext> out(steps.size());
  parallel_for(0, steps.size(), [&](std::size_t s) {
    if (elts[s] == 1) {
      out[s] = *src;
      return;
    }
    Ciphertext r;
    RnsPoly acc0;
    ctx_.apply_galois_ntt(src->parts[0], elts[s], acc0);
    RnsPoly acc1(ctx_.rns_size(), ctx_.degree(), true);
    const KSwitchKey& key = gk.keys.at(elts[s]);
    hoist->apply(elts[s], key, acc0, acc1);
    r.parts.push_back(std::move(acc0));
    r.parts.push_back(std::move(acc1));
    out[s] = std::move(r);
  });
  std::uint64_t rotated = 0;
  for (const u64 e : elts) rotated += e != 1 ? 1 : 0;
  counters_.rotations += rotated;
  return out;
}

namespace {

// Single source of truth for the rotate-sum BSGS schedule: hoisted baby
// steps 1..n1-1 (n1 ~ sqrt(width)) plus doubling giant strides n1, 2*n1,
// ... < width.  rotate_sum_steps (key provisioning) and rotate_sum_inplace
// (execution) both consume this, so key material can never desync from the
// rotation walk.
struct RotateSumSchedule {
  std::vector<int> baby;
  std::vector<int> giant;
};

RotateSumSchedule rotate_sum_schedule(std::size_t width) {
  RotateSumSchedule sched;
  if (width <= 1) return sched;
  std::size_t log_w = 0;
  while ((std::size_t{1} << log_w) < width) ++log_w;
  const std::size_t n1 = std::size_t{1} << ((log_w + 1) / 2);
  for (std::size_t g = 1; g < n1 && g < width; ++g) {
    sched.baby.push_back(static_cast<int>(g));
  }
  for (std::size_t s = n1; s < width; s <<= 1) {
    sched.giant.push_back(static_cast<int>(s));
  }
  return sched;
}

}  // namespace

std::vector<int> Evaluator::rotate_sum_steps(std::size_t width) {
  const RotateSumSchedule sched = rotate_sum_schedule(width);
  std::vector<int> steps = sched.baby;
  steps.insert(steps.end(), sched.giant.begin(), sched.giant.end());
  return steps;
}

void Evaluator::rotate_sum_inplace(Ciphertext& a, std::size_t width,
                                   const GaloisKeys& gk) const {
  if (width <= 1) return;
  if ((width & (width - 1)) != 0) {
    throw std::invalid_argument("rotate_sum_inplace: width must be 2^k");
  }
  const RotateSumSchedule sched = rotate_sum_schedule(width);
  // Baby phase, hoisted: a <- sum of rot_g(a), g in [0, n1).
  if (!sched.baby.empty()) {
    const auto rots = rotate_rows_many(a, sched.baby, gk);
    for (const auto& r : rots) {
      add_inplace(a, r);
    }
  }
  // Giant phase: doubling strides fold the n1-blocks together.
  for (const int s : sched.giant) {
    Ciphertext rot = a;
    rotate_rows_inplace(rot, s, gk);
    add_inplace(a, rot);
  }
}

void Evaluator::rotate_rows_inplace(Ciphertext& a, int step,
                                    const GaloisKeys& gk) const {
  if (step == 0) return;
  apply_galois_inplace(a, ctx_.galois_elt_from_step(step), gk);
}

void Evaluator::serialize(const Ciphertext& ct, ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(ct.parts.size()));
  for (const auto& part : ct.parts) {
    w.u8(part.ntt_form ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(part.rns_size()));
    w.u64(part.degree());
    // Limbs are one contiguous buffer — a single memcpy-sized append.
    w.bytes(part.data(), part.word_count() * sizeof(u64));
  }
}

Ciphertext Evaluator::deserialize(ByteReader& r) const {
  Ciphertext ct;
  const auto parts = r.u32();
  // Legitimate ciphertexts have 2 parts (3 transiently, pre-relin); the
  // degree-bounded maximum any evaluator op can emit is 4.  Anything else
  // is a corrupted or hostile stream.
  if (parts < 1 || parts > 4) {
    throw std::out_of_range("deserialize: ciphertext part count " +
                            std::to_string(parts) + " outside [1, 4]");
  }
  for (std::uint32_t p = 0; p < parts; ++p) {
    const bool ntt_form = r.u8() != 0;
    const auto k = r.u32();
    const auto n = r.u64();
    // Exact-shape check: downstream kernels stream ctx-degree words through
    // unchecked pointers, so an undersized polynomial from a hostile or
    // corrupted stream must be rejected here, not discovered as an
    // out-of-bounds write later.
    if (k != ctx_.rns_size() || n != ctx_.degree()) {
      throw std::out_of_range("deserialize: polynomial shape mismatch");
    }
    RnsPoly poly(k, static_cast<std::size_t>(n), ntt_form);
    r.bytes(poly.data(), poly.word_count() * sizeof(u64));
    // Every kernel assumes canonical residues, and no honest sender ships
    // anything else.
    for (std::size_t i = 0; i < k; ++i) {
      const u64 q = ctx_.q(i);
      const u64* limb = poly.limb(i);
      bool out_of_range = false;
      for (std::size_t x = 0; x < n; ++x) out_of_range |= limb[x] >= q;
      if (out_of_range) {
        throw std::out_of_range("deserialize: residue of limb " +
                                std::to_string(i) + " is not below q_" +
                                std::to_string(i));
      }
    }
    ct.parts.push_back(std::move(poly));
  }
  return ct;
}

}  // namespace primer
