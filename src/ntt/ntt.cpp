#include "ntt/ntt.h"

#include <stdexcept>

#include "common/parallel.h"
#include "ntt/primes.h"

namespace primer {

namespace {

int ilog2(std::size_t n) {
  int l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

Ntt::Ntt(std::size_t n, u64 p)
    : n_(n),
      log_n_(ilog2(n)),
      p_(p),
      barrett_(p),
      kernel_(&dispatch_kernel(p)) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("Ntt: degree must be a power of two");
  }
  if ((p - 1) % (2 * n) != 0) {
    throw std::invalid_argument("Ntt: modulus p must be 1 mod 2n");
  }
  const u64 psi = find_primitive_root(p, 2 * n);
  const u64 psi_inv = inv_mod(psi, p);

  fwd_w_.assign(n, 0);
  fwd_wq_.assign(n, 0);
  inv_w_.assign(n, 0);
  inv_wq_.assign(n, 0);
  // Twiddle quotients follow the bound kernel's Shoup convention (64-bit
  // high-half for scalar/avx2/avx512, 52-bit vpmadd52hi for avx512ifma).
  const unsigned shift = kernel_->shoup_shift;
  u64 power = 1, power_inv = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rev = bit_reverse(i, log_n_);
    const ShoupMul f(power, p, shift);
    const ShoupMul g(power_inv, p, shift);
    fwd_w_[rev] = f.operand;
    fwd_wq_[rev] = f.quotient;
    inv_w_[rev] = g.operand;
    inv_wq_[rev] = g.quotient;
    power = mul_mod(power, psi, p);
    power_inv = mul_mod(power_inv, psi_inv, p);
  }
  const ShoupMul ninv(inv_mod(static_cast<u64>(n), p), p, shift);
  n_inv_ = ninv.operand;
  n_inv_shoup_ = ninv.quotient;
}

void Ntt::forward(std::vector<u64>& a) const {
  if (a.size() != n_) throw std::invalid_argument("Ntt::forward: size");
  forward(a.data());
}

void Ntt::inverse(std::vector<u64>& a) const {
  if (a.size() != n_) throw std::invalid_argument("Ntt::inverse: size");
  inverse(a.data());
}

void Ntt::forward_batch(std::vector<std::vector<u64>>& polys) const {
  parallel_for(0, polys.size(), [&](std::size_t i) { forward(polys[i]); });
}

void Ntt::pointwise(const std::vector<u64>& a, const std::vector<u64>& b,
                    std::vector<u64>& out) const {
  if (a.size() != n_ || b.size() != n_) {
    throw std::invalid_argument("Ntt::pointwise: size");
  }
  out.resize(n_);
  pointwise(a.data(), b.data(), out.data());
}

std::vector<u64> Ntt::negacyclic_multiply(std::vector<u64> a,
                                          std::vector<u64> b) const {
  forward(a);
  forward(b);
  std::vector<u64> out;
  pointwise(a, b, out);
  inverse(out);
  return out;
}

}  // namespace primer
