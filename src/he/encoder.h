// CRT batching (SIMD slot) encoder.
//
// With plaintext modulus t ≡ 1 (mod 2n), the ring Z_t[x]/(x^n+1) splits
// into n copies of Z_t.  Values are laid out SEAL-style as a 2 x (n/2)
// matrix: Galois element 3^k rotates each row by k, element 2n-1 swaps the
// rows.  This is the packing substrate that the paper's feature-based vs
// tokens-first packing strategies (Fig. 6) build on.
#pragma once

#include <cstdint>
#include <vector>

#include "he/context.h"
#include "he/rns_poly.h"

namespace primer {

class BatchEncoder {
 public:
  explicit BatchEncoder(const HeContext& ctx);

  std::size_t slot_count() const { return slots_; }
  std::size_t row_size() const { return slots_ / 2; }

  // values.size() <= slot_count(); missing slots are zero.  Values must be
  // reduced mod t.
  Plaintext encode(const std::vector<u64>& values) const;
  std::vector<u64> decode(const Plaintext& pt) const;

 private:
  const HeContext& ctx_;
  std::size_t slots_;
  std::vector<std::size_t> index_map_;  // slot -> NTT array position
};

}  // namespace primer
