// AES-128 block cipher used as the garbling hash (fixed-key AES, the
// JustGarble construction the paper adopts via [2] Bellare et al.).
// Uses AES-NI; the build requires -maes (checked at configure time).
#pragma once

#include <cstdint>
#include <wmmintrin.h>

namespace primer {

// 128-bit block as two 64-bit words (little-endian layout).
struct Block {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  Block() = default;
  Block(std::uint64_t l, std::uint64_t h) : lo(l), hi(h) {}

  Block operator^(const Block& o) const { return {lo ^ o.lo, hi ^ o.hi}; }
  Block& operator^=(const Block& o) {
    lo ^= o.lo;
    hi ^= o.hi;
    return *this;
  }
  bool operator==(const Block& o) const { return lo == o.lo && hi == o.hi; }
  bool lsb() const { return (lo & 1) != 0; }

  __m128i to_m128() const {
    return _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
  }
  static Block from_m128(__m128i v) {
    alignas(16) std::uint64_t w[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(w), v);
    return {w[0], w[1]};
  }
};

// AES-128 with a fixed, publicly known key — a random permutation model
// instantiation.  Garbling security comes from the secrecy of wire labels,
// not the AES key (Bellare–Hoang–Keelveedhi–Rogaway).
class FixedKeyAes {
 public:
  FixedKeyAes();
  explicit FixedKeyAes(Block key);

  Block encrypt(Block x) const;

  // The MMO-style garbling hash: H(x, tweak) = AES(sigma(x) ^ tweak) ^
  // sigma(x) ^ tweak with sigma(x) = x doubled in GF(2^128).  Collision-
  // resistant under the fixed-key random-permutation heuristic.
  Block hash(Block x, std::uint64_t tweak) const;

  // Expanded key schedule (11 round keys).  The garble/eval AND-gate
  // kernels fuse the AES rounds of many hashes into their own
  // register-resident pipelines from these keys; hash() is the scalar
  // reference they must match bit for bit.
  const __m128i* round_keys() const { return round_keys_; }

 private:
  __m128i round_keys_[11];
};

// In-register GF(2^128) doubling — sigma of the garbling hash — bit-
// identical to the scalar path: each 32-bit lane shifts left by one, the
// three inter-lane carries are patched back in from the sign-extended lane
// masks, and the lane-3 carry becomes the 0x87 reduction in lane 0.  Linear
// over XOR (so sigma(a ^ delta) = sigma(a) ^ sigma(delta)).
inline __m128i gf_double_m128(__m128i v) {
  const __m128i lane_fix = _mm_set_epi32(0x87, 1, 1, 1);
  __m128i carries = _mm_and_si128(_mm_srai_epi32(v, 31), lane_fix);
  carries = _mm_shuffle_epi32(carries, _MM_SHUFFLE(2, 1, 0, 3));
  return _mm_xor_si128(_mm_slli_epi32(v, 1), carries);
}

}  // namespace primer
