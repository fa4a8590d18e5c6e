// Additive secret sharing over Z_t.
//
// All intermediate Transformer state in the Primer protocols lives as a
// pair of matrices (client share, server share) with X = (Xc + Xs) mod t.
// Shared matrices are multiplied by the HE-backed FHGS protocol (§III-B,
// proto/attention.h), not by a triple dealer.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/matrix.h"
#include "common/rng.h"

namespace primer {

// One shared matrix of ring elements in [0, t): X = client + server mod t.
// Every shared matrix of the protocols is one: an activation (the client's
// share is its mask R, the server holds X - R) and the output of every
// linear, product and score protocol.
struct SharePair {
  MatI client;
  MatI server;
};

class ShareRing {
 public:
  explicit ShareRing(std::uint64_t t) : t_(static_cast<std::int64_t>(t)) {}

  std::uint64_t modulus() const { return static_cast<std::uint64_t>(t_); }

  std::int64_t reduce(std::int64_t v) const {
    std::int64_t r = v % t_;
    if (r < 0) r += t_;
    return r;
  }

  // Centered representative in (-t/2, t/2].
  std::int64_t center(std::int64_t v) const {
    const std::int64_t r = reduce(v);
    return r > t_ / 2 ? r - t_ : r;
  }

  MatI reduce(const MatI& m) const {
    MatI out(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.size(); ++i) out.data()[i] = reduce(m.data()[i]);
    return out;
  }

  MatI center(const MatI& m) const {
    MatI out(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.size(); ++i) out.data()[i] = center(m.data()[i]);
    return out;
  }

  MatI add(const MatI& a, const MatI& b) const {
    MatI out(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.data()[i] = reduce(a.data()[i] + b.data()[i]);
    }
    return out;
  }

  MatI sub(const MatI& a, const MatI& b) const {
    MatI out(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.data()[i] = reduce(a.data()[i] - b.data()[i]);
    }
    return out;
  }

  // Plain matrix product with entries reduced into the ring.  Products of
  // two ring residues reach ~2^72 for t ~ 2^36, so accumulation uses 128-bit
  // intermediates.
  MatI mul(const MatI& a, const MatI& b) const {
    if (a.cols() != b.rows()) throw std::invalid_argument("ShareRing::mul dims");
    MatI out(a.rows(), b.cols());
    const auto tt = static_cast<unsigned __int128>(t_);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        unsigned __int128 acc = 0;
        for (std::size_t k = 0; k < a.cols(); ++k) {
          const auto va = static_cast<unsigned __int128>(reduce(a(i, k)));
          const auto vb = static_cast<unsigned __int128>(reduce(b(k, j)));
          acc += (va * vb) % tt;
        }
        out(i, j) = static_cast<std::int64_t>(acc % tt);
      }
    }
    return out;
  }

  MatI random(Rng& rng, std::size_t rows, std::size_t cols) const {
    MatI m(rows, cols);
    for (auto& v : m.data()) {
      v = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(t_)));
    }
    return m;
  }

  // Splits a centered-value matrix into two uniformly random shares.
  SharePair share(const MatI& value, Rng& rng) const {
    SharePair p;
    p.client = random(rng, value.rows(), value.cols());
    p.server = sub(reduce(value), p.client);
    return p;
  }

  // Reconstructs the centered values.
  MatI reconstruct(const SharePair& p) const {
    return center(add(p.client, p.server));
  }

 private:
  std::int64_t t_;
};

}  // namespace primer
