// Polynomial in R_q represented in the residue number system.  Residues are
// stored as ONE contiguous 64-byte-aligned buffer of rns_size * degree
// words — limb i (the residue vector modulo q_i) is the slice
// [i*degree, (i+1)*degree), reachable through limb(i) — so NTT and limb-op
// kernels stream cache-aligned memory instead of chasing per-limb
// allocations.  Polynomials are tagged with their domain (coefficient vs
// NTT/evaluation form); the evaluator converts as needed.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "ntt/kernels.h"
#include "ntt/modarith.h"

namespace primer {

class HeContext;  // defined in he/context.h

struct RnsPoly {
  bool ntt_form = false;

  RnsPoly() = default;
  RnsPoly(std::size_t rns_size, std::size_t degree, bool ntt = false)
      : ntt_form(ntt),
        data_(rns_size * degree, 0),
        rns_size_(rns_size),
        degree_(degree) {}

  std::size_t rns_size() const { return rns_size_; }
  std::size_t degree() const { return degree_; }

  // Residue vector modulo q_i: limb(i)[j] = j-th coefficient (or NTT slot).
  u64* limb(std::size_t i) { return data_.data() + i * degree_; }
  const u64* limb(std::size_t i) const { return data_.data() + i * degree_; }
  std::span<u64> limb_span(std::size_t i) { return {limb(i), degree_}; }
  std::span<const u64> limb_span(std::size_t i) const {
    return {limb(i), degree_};
  }

  // The whole rns_size*degree buffer, limb-major (bulk serialization).
  u64* data() { return data_.data(); }
  const u64* data() const { return data_.data(); }
  std::size_t word_count() const { return data_.size(); }

  bool same_shape(const RnsPoly& o) const {
    return rns_size_ == o.rns_size_ && degree_ == o.degree_;
  }

 private:
  AlignedU64 data_;
  std::size_t rns_size_ = 0;
  std::size_t degree_ = 0;
};

// A ciphertext is a vector of polynomials (size 2 normally, 3 after a
// ciphertext-ciphertext multiplication until relinearized).  Decryption of
// (c0, c1, c2, ...) computes c0 + c1*s + c2*s^2 + ... and measures the noise
// there; a ciphertext carries no noise estimate of its own.
struct Ciphertext {
  std::vector<RnsPoly> parts;

  std::size_t size() const { return parts.size(); }
  bool empty() const { return parts.empty(); }
};

// Plaintext polynomial with coefficients mod t, in the coefficient domain
// (the batching encoder's output, ready for encryption and addition).  A
// plaintext that multiplies ciphertexts more than once is transformed once
// into an NttPlaintext (Evaluator::transform_to_ntt).
struct Plaintext {
  std::vector<u64> coeffs;  // mod t, coefficient domain
  std::size_t degree() const { return coeffs.size(); }
};

// A plaintext lifted into R_q and transformed to NTT form: the operand
// Evaluator::multiply_plain_{inplace,accumulate} consume.  A multiply by a
// Plaintext pays the lift and one forward NTT per RNS limb every time;
// an NttPlaintext pays them once.  A default-constructed one is empty, and
// the multiplies refuse it.
struct NttPlaintext {
  RnsPoly poly;
  bool empty() const { return poly.word_count() == 0; }
};

}  // namespace primer
