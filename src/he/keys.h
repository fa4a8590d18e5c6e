// Key material for the RLWE scheme.
//
// Key switching uses the RNS-digit gadget (the same construction SEAL calls
// "key switching keys"): for a source key s_src and RNS basis {q_i}, the
// switching key holds, for every digit (i, d),
//     K_{i,d} = ( -(a * s + t*e) + 2^{d*w} * P_i * s_src ,  a )
// where P_i = (q/q_i) * [(q/q_i)^{-1}]_{q_i} is the CRT unit (1 mod q_i,
// 0 mod q_j) and w = decomp_bits splits each residue into base-2^w
// sub-digits.  Summing digit_{i,d} (*) K_{i,d} over the decomposition of a
// polynomial c yields an encryption of c * s_src under s.
//
// decomp_bits == 0 means one full-width digit per RNS prime (d = 0 only) —
// the cheapest layout, used for relinearization where the incoming
// multiplication noise dominates anyway.  Galois keys use finer sub-digits
// (HeContext::galois_decomp_bits, half the modulus width): the key-switch
// noise scales with the digit magnitude, and rotations must leave room for
// the plaintext multiplications BSGS matmuls apply AFTER rotating.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "he/rns_poly.h"

namespace primer {

struct SecretKey {
  RnsPoly s;  // NTT form
};

struct KSwitchKey {
  // One (b, a) pair per gadget digit, all NTT form, flattened in the order
  // HeContext::decomp_layout(decomp_bits) enumerates: limb-major, then
  // sub-digit (shift) within the limb.
  std::vector<RnsPoly> b;
  std::vector<RnsPoly> a;
  // Elementwise Shoup quotients floor(elem * 2^shift / q_j) of b / a, where
  // shift is the consuming kernel set's shoup_shift (64 for scalar/avx2/
  // avx512, 52 for avx512ifma).  The key limbs are the fixed operand of
  // every key-switch product, so every key carries these tables: keygen and
  // the wire decoder both build them through append_kswitch_digit, and
  // HoistedKeySwitch::apply rejects a key without them.  The hot loop then
  // accumulates division-free products in [0, 2p) (shoup_mul_acc_lazy2).
  std::vector<RnsPoly> b_shoup;
  std::vector<RnsPoly> a_shoup;
  // Sub-digit width this key was generated for (0 = one digit per limb).
  std::uint32_t decomp_bits = 0;

  std::size_t digits() const { return b.size(); }
};

struct RelinKey {
  KSwitchKey key;  // switches s^2 -> s
};

struct GaloisKeys {
  // Galois element -> key switching s(x^elt) -> s(x).
  std::map<u64, KSwitchKey> keys;

  bool has(u64 elt) const { return keys.count(elt) != 0; }
};

}  // namespace primer
