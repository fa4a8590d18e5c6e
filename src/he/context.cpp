#include "he/context.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"

namespace primer {

HeContext::HeContext(HeParams params) : params_(std::move(params)) {
  const std::size_t n = params_.poly_degree;
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("HeContext: poly_degree must be power of two");
  }
  for (u64 p : params_.q) {
    // Lifts copy coefficients below t (or |x| below q_i) without reducing.
    if (params_.t >= p) {
      throw std::invalid_argument(
          "HeContext: plaintext modulus must be below every q_i");
    }
    ntts_.push_back(std::make_unique<Ntt>(n, p));
    barretts_.emplace_back(p);
  }
  plain_ntt_ = std::make_unique<Ntt>(n, params_.t);

  // CRT composition constants.
  q_total_ = U256::from_u64(1);
  for (u64 p : params_.q) q_total_ = q_total_.mul_u64(p);
  q_half_ = q_total_;
  // q/2 via halving (q is odd, floor is fine for the centering test).
  {
    U256 half;
    unsigned __int128 rem = 0;
    for (int i = 3; i >= 0; --i) {
      const unsigned __int128 cur = (rem << 64) | q_total_.limb[i];
      half.limb[i] = static_cast<u64>(cur >> 1);
      rem = cur & 1;
    }
    q_half_ = half;
  }

  for (std::size_t i = 0; i < params_.q.size(); ++i) {
    U256 hat = U256::from_u64(1);
    for (std::size_t j = 0; j < params_.q.size(); ++j) {
      if (j != i) hat = hat.mul_u64(params_.q[j]);
    }
    q_hat_.push_back(hat);
    const u64 qi = params_.q[i];
    inv_q_hat_.emplace_back(inv_mod(hat.mod_u64(qi), qi), qi);
  }
  q_mod_t_ = q_total_.mod_u64(params_.t);
}

void HeContext::to_ntt(RnsPoly& p) const {
  if (p.ntt_form) return;
  if (p.degree() != degree() || p.rns_size() > rns_size()) {
    throw std::invalid_argument("HeContext::to_ntt: shape");
  }
  // RNS limbs are independent transforms over distinct primes.  Cost hint:
  // ~n log n butterflies of a couple of ops each per limb.
  parallel_for(0, p.rns_size(), degree() * 32,
               [&](std::size_t i) { ntts_[i]->forward(p.limb(i)); });
  p.ntt_form = true;
}

void HeContext::to_coeff(RnsPoly& p) const {
  if (!p.ntt_form) return;
  if (p.degree() != degree() || p.rns_size() > rns_size()) {
    throw std::invalid_argument("HeContext::to_coeff: shape");
  }
  parallel_for(0, p.rns_size(), degree() * 32,
               [&](std::size_t i) { ntts_[i]->inverse(p.limb(i)); });
  p.ntt_form = false;
}

void HeContext::add_inplace(RnsPoly& a, const RnsPoly& b) const {
  if (!a.same_shape(b) || a.ntt_form != b.ntt_form) {
    throw std::invalid_argument("HeContext::add_inplace: shape/domain");
  }
  parallel_for(0, a.rns_size(), degree(), [&](std::size_t i) {
    kernels(i).add(a.limb(i), a.limb(i), b.limb(i), degree(), params_.q[i]);
  });
}

void HeContext::sub_inplace(RnsPoly& a, const RnsPoly& b) const {
  if (!a.same_shape(b) || a.ntt_form != b.ntt_form) {
    throw std::invalid_argument("HeContext::sub_inplace: shape/domain");
  }
  parallel_for(0, a.rns_size(), degree(), [&](std::size_t i) {
    kernels(i).sub(a.limb(i), a.limb(i), b.limb(i), degree(), params_.q[i]);
  });
}

void HeContext::negate_inplace(RnsPoly& a) const {
  for (std::size_t i = 0; i < a.rns_size(); ++i) {
    kernels(i).neg(a.limb(i), a.limb(i), degree(), params_.q[i]);
  }
}

RnsPoly HeContext::multiply(const RnsPoly& a, const RnsPoly& b) const {
  RnsPoly out = a;
  multiply_inplace(out, b);
  return out;
}

void HeContext::multiply_inplace(RnsPoly& a, const RnsPoly& b) const {
  if (!a.ntt_form || !b.ntt_form) {
    throw std::invalid_argument("HeContext::multiply: operands must be NTT");
  }
  // Barrett products are several multiplies per element — an order of
  // magnitude costlier than an add.
  parallel_for(0, a.rns_size(), degree() * 16, [&](std::size_t i) {
    ntts_[i]->pointwise(a.limb(i), b.limb(i), a.limb(i));
  });
}

void HeContext::multiply_accumulate(RnsPoly& acc, const RnsPoly& a,
                                    const RnsPoly& b) const {
  if (!acc.ntt_form || !a.ntt_form || !b.ntt_form) {
    throw std::invalid_argument(
        "HeContext::multiply_accumulate: operands must be NTT");
  }
  if (!acc.same_shape(a) || !acc.same_shape(b)) {
    throw std::invalid_argument("HeContext::multiply_accumulate: shape");
  }
  parallel_for(0, acc.rns_size(), degree() * 16, [&](std::size_t i) {
    ntts_[i]->pointwise_accumulate(a.limb(i), b.limb(i), acc.limb(i));
  });
}

void HeContext::scalar_multiply_inplace(RnsPoly& a, u64 scalar) const {
  for (std::size_t i = 0; i < a.rns_size(); ++i) {
    const u64 p = params_.q[i];
    // Quotient scale must match the consuming kernel set's convention.
    const ShoupMul s(scalar % p, p, kernels(i).shoup_shift);
    kernels(i).scalar_mul(a.limb(i), a.limb(i), degree(), s.operand,
                          s.quotient, p);
  }
}

RnsPoly HeContext::sample_uniform(Rng& rng) const {
  RnsPoly out(rns_size(), degree(), false);
  for (std::size_t i = 0; i < rns_size(); ++i) {
    rng.fill_uniform_mod(out.limb(i), degree(), params_.q[i]);
  }
  return out;
}

RnsPoly HeContext::sample_error(Rng& rng) const {
  std::vector<i64> e(degree());
  for (auto& v : e) v = rng.cbd(params_.noise_eta);
  return lift_signed(e);
}

RnsPoly HeContext::sample_ternary(Rng& rng) const {
  std::vector<i64> s(degree());
  for (auto& v : s) v = rng.uniform_int(-1, 1);
  return lift_signed(s);
}

RnsPoly HeContext::lift_signed(const std::vector<i64>& v) const {
  if (v.size() != degree()) {
    throw std::invalid_argument("lift_signed: wrong degree");
  }
  RnsPoly out(rns_size(), degree(), false);
  for (std::size_t i = 0; i < rns_size(); ++i) {
    const u64 p = params_.q[i];
    u64* limb = out.limb(i);
    for (std::size_t j = 0; j < v.size(); ++j) {
      // |x| < p is the common case (noise, ternary secrets): no division.
      const u64 mag = v[j] >= 0 ? static_cast<u64>(v[j])
                                : 0 - static_cast<u64>(v[j]);
      const u64 r = mag < p ? mag : mag % p;
      limb[j] = v[j] >= 0 || r == 0 ? r : p - r;
    }
  }
  return out;
}

RnsPoly HeContext::lift_plaintext(const Plaintext& pt) const {
  if (pt.coeffs.size() != degree()) {
    throw std::invalid_argument("lift_plaintext: wrong degree");
  }
  // Every coefficient is below t, and t is below every q_i (checked at
  // construction), so each limb is a copy of the coefficients.
  RnsPoly out(rns_size(), degree(), false);
  for (const u64 c : pt.coeffs) {
    if (c >= params_.t) {
      throw std::invalid_argument("lift_plaintext: coefficient not below t");
    }
  }
  for (std::size_t i = 0; i < rns_size(); ++i) {
    std::copy(pt.coeffs.begin(), pt.coeffs.end(), out.limb(i));
  }
  return out;
}

u64 HeContext::compose_center_mod_t(const std::vector<u64>& residues,
                                    U256& noise) const {
  // x = sum_i ([residue_i * inv_q_hat_i]_{q_i}) * q_hat_i, then reduce into
  // [0, q).  The sum is < k*q so at most (k-1) subtractions are needed.
  U256 x;
  for (std::size_t i = 0; i < residues.size(); ++i) {
    const u64 s = inv_q_hat_[i].mul(residues[i], params_.q[i]);
    x += q_hat_[i].mul_u64(s);
  }
  while (x >= q_total_) x -= q_total_;
  const u64 t = params_.t;
  if (x >= q_half_) {
    // Centered value x - q < 0: m = (x - q) mod t, and |x - q - m| is
    // q - x + m.
    const u64 m = (x.mod_u64(t) + t - q_mod_t_) % t;
    noise = q_total_ - x + U256::from_u64(m);
    return m;
  }
  const u64 m = x.mod_u64(t);
  noise = x - U256::from_u64(m);
  return m;
}

void HeContext::apply_galois_coeff(const RnsPoly& in, u64 elt,
                                   RnsPoly& out) const {
  if (in.ntt_form) {
    throw std::invalid_argument("apply_galois_coeff: coefficient form only");
  }
  const std::size_t n = degree();
  out = RnsPoly(in.rns_size(), n, false);
  for (std::size_t i = 0; i < in.rns_size(); ++i) {
    apply_galois_plain(in.limb(i), elt, out.limb(i), params_.q[i]);
  }
}

void HeContext::apply_galois_plain(const u64* in, u64 elt, u64* out,
                                   u64 modulus) const {
  const std::size_t n = degree();
  // x^j -> x^{j*elt mod 2n}; if the exponent lands in [n, 2n), negate
  // (since x^n = -1).  Every output index is written exactly once (the map
  // is a permutation), so no pre-zeroing is needed.
  for (std::size_t j = 0; j < n; ++j) {
    const u64 idx = (static_cast<u64>(j) * elt) % (2 * n);
    const u64 v = in[j];
    if (idx < n) {
      out[idx] = v;
    } else {
      out[idx - n] = neg_mod(v, modulus);
    }
  }
}

void HeContext::apply_galois_plain(const std::vector<u64>& in, u64 elt,
                                   std::vector<u64>& out, u64 modulus) const {
  out.resize(degree());
  apply_galois_plain(in.data(), elt, out.data(), modulus);
}

const std::vector<std::uint32_t>& HeContext::galois_ntt_table(u64 elt) const {
  std::lock_guard<std::mutex> lock(galois_ntt_mu_);
  const auto it = galois_ntt_tables_.find(elt);
  if (it != galois_ntt_tables_.end()) return it->second;

  const std::size_t n = degree();
  int log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  const u64 m = 2 * n;
  std::vector<std::uint32_t> table(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Slot i evaluates at psi^(2*brv(i)+1); the automorphed polynomial's
    // value there is the input's value at psi^((2*brv(i)+1)*elt mod 2n),
    // which lives in the slot bit-reversing that (odd) exponent.
    const u64 point = (2 * bit_reverse(i, log_n) + 1) * elt % m;
    table[i] = static_cast<std::uint32_t>(bit_reverse((point - 1) / 2, log_n));
  }
  return galois_ntt_tables_.emplace(elt, std::move(table)).first->second;
}

void HeContext::apply_galois_ntt(const RnsPoly& in, u64 elt,
                                 RnsPoly& out) const {
  if (!in.ntt_form) {
    throw std::invalid_argument("apply_galois_ntt: NTT form only");
  }
  const std::size_t n = degree();
  const auto& table = galois_ntt_table(elt);
  out = RnsPoly(in.rns_size(), n, true);
  for (std::size_t i = 0; i < in.rns_size(); ++i) {
    const u64* src = in.limb(i);
    u64* dst = out.limb(i);
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[table[j]];
  }
}

std::vector<HeContext::GadgetDigit> HeContext::decomp_layout(
    std::uint32_t decomp_bits) const {
  std::vector<GadgetDigit> layout;
  for (std::size_t i = 0; i < rns_size(); ++i) {
    if (decomp_bits == 0) {
      layout.push_back({static_cast<std::uint32_t>(i), 0});
      continue;
    }
    std::uint32_t bits = 0;
    while ((params_.q[i] >> bits) != 0) ++bits;
    for (std::uint32_t shift = 0; shift < bits; shift += decomp_bits) {
      layout.push_back({static_cast<std::uint32_t>(i), shift});
    }
  }
  return layout;
}

std::uint32_t HeContext::galois_decomp_bits() const {
  std::uint32_t max_bits = 0;
  for (const u64 p : params_.q) {
    std::uint32_t bits = 0;
    while ((p >> bits) != 0) ++bits;
    max_bits = std::max(max_bits, bits);
  }
  return (max_bits + 1) / 2;
}

u64 HeContext::galois_elt_from_step(int step) const {
  const std::size_t n = degree();
  const u64 m = 2 * n;
  const std::size_t row = n / 2;
  // Normalize step into [0, row).
  long long s = step % static_cast<long long>(row);
  if (s < 0) s += static_cast<long long>(row);
  // Left-rotation by `step` corresponds to the element 3^step mod 2n:
  // the automorphism x -> x^3 moves the value in slot i+1 into slot i.
  u64 elt = 1;
  const u64 gen = 3;
  for (long long i = 0; i < s; ++i) {
    elt = (elt * gen) % m;
  }
  return elt;
}

}  // namespace primer
