// Minimal fixed-width 256-bit unsigned integer.
//
// Used only on the narrow decryption path: CRT-composing the RNS residues
// of c0 + c1*s into the single integer representative mod q (q up to ~160
// bits), centering it, reducing mod the plaintext modulus t, and keeping the
// largest noise |x - m| the pass meets.  Only the operations that path needs
// are provided.
#pragma once

#include <array>
#include <cstdint>

namespace primer {

struct U256 {
  // Little-endian limbs: v = limb[0] + limb[1]*2^64 + ...
  std::array<std::uint64_t, 4> limb{0, 0, 0, 0};

  static U256 from_u64(std::uint64_t x) {
    U256 r;
    r.limb[0] = x;
    return r;
  }

  int compare(const U256& o) const {
    for (int i = 3; i >= 0; --i) {
      if (limb[i] != o.limb[i]) return limb[i] < o.limb[i] ? -1 : 1;
    }
    return 0;
  }

  bool operator<(const U256& o) const { return compare(o) < 0; }
  bool operator>=(const U256& o) const { return compare(o) >= 0; }

  U256& operator+=(const U256& o) {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 s =
          static_cast<unsigned __int128>(limb[i]) + o.limb[i] + carry;
      limb[i] = static_cast<std::uint64_t>(s);
      carry = s >> 64;
    }
    return *this;
  }

  U256& operator-=(const U256& o) {
    unsigned __int128 borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 d = static_cast<unsigned __int128>(limb[i]) -
                                  o.limb[i] - borrow;
      limb[i] = static_cast<std::uint64_t>(d);
      borrow = (d >> 64) & 1;
    }
    return *this;
  }

  U256 operator+(const U256& o) const {
    U256 r = *this;
    r += o;
    return r;
  }

  U256 operator-(const U256& o) const {
    U256 r = *this;
    r -= o;
    return r;
  }

  // Multiply by a 64-bit scalar (result truncated to 256 bits; callers
  // guarantee no overflow: operands stay below 2^200).
  U256 mul_u64(std::uint64_t x) const {
    U256 r;
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(limb[i]) * x + carry;
      r.limb[i] = static_cast<std::uint64_t>(p);
      carry = p >> 64;
    }
    return r;
  }

  // Remainder modulo a 64-bit value.
  std::uint64_t mod_u64(std::uint64_t m) const {
    unsigned __int128 rem = 0;
    for (int i = 3; i >= 0; --i) {
      rem = ((rem << 64) | limb[i]) % m;
    }
    return static_cast<std::uint64_t>(rem);
  }

  // The value as a (rounded) double, for the logarithm of a noise magnitude.
  double to_double() const {
    double v = 0.0;
    for (int i = 3; i >= 0; --i) {
      v = v * 18446744073709551616.0 + static_cast<double>(limb[i]);
    }
    return v;
  }
};

}  // namespace primer
