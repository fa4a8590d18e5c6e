// 15-bit fixed-point codec (paper §IV: "inputs and weights use 15-bit
// fix-point representation and the intermediate results are truncated into
// 15 bits to avoid overflow").
//
// Values are stored as signed integers v = round(x * 2^kFracBits) clamped to
// the 15-bit two's-complement range.  After every multiply the product holds
// 2*kFracBits fractional bits and must be re-truncated with `truncate()`.
// All protocol arithmetic happens on these integers embedded either in the
// HE plaintext modulus ring or in Z_2^64 secret shares.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace primer {

struct FixedPointFormat {
  int total_bits = 15;  // paper's representation width
  int frac_bits = 8;    // scale = 2^8; leaves 6 integer bits + sign

  std::int64_t scale() const { return std::int64_t{1} << frac_bits; }
  std::int64_t max_raw() const {
    return (std::int64_t{1} << (total_bits - 1)) - 1;
  }
  std::int64_t min_raw() const {
    return -(std::int64_t{1} << (total_bits - 1));
  }
};

inline constexpr FixedPointFormat kDefaultFixedPoint{};

// Encodes a real value into the raw fixed-point integer, saturating at the
// representable range (the paper truncates rather than wraps).
inline std::int64_t fp_encode(double x,
                              const FixedPointFormat& f = kDefaultFixedPoint) {
  const double scaled = std::nearbyint(x * static_cast<double>(f.scale()));
  const double lo = static_cast<double>(f.min_raw());
  const double hi = static_cast<double>(f.max_raw());
  return static_cast<std::int64_t>(std::clamp(scaled, lo, hi));
}

inline double fp_decode(std::int64_t raw,
                        const FixedPointFormat& f = kDefaultFixedPoint) {
  return static_cast<double>(raw) / static_cast<double>(f.scale());
}

// Truncates a double-width product (2*frac_bits fractional bits) back to
// frac_bits, with arithmetic (round-toward-negative-infinity) shift, then
// saturates to the 15-bit range.  Matches the paper's "truncated into 15
// bits to avoid overflow".
inline std::int64_t fp_truncate(std::int64_t product,
                                const FixedPointFormat& f = kDefaultFixedPoint) {
  const std::int64_t shifted = product >> f.frac_bits;
  return std::clamp(shifted, f.min_raw(), f.max_raw());
}

// Saturating re-clamp without rescale (used after additions).
inline std::int64_t fp_saturate(std::int64_t v,
                                const FixedPointFormat& f = kDefaultFixedPoint) {
  return std::clamp(v, f.min_raw(), f.max_raw());
}

// Maps a signed raw value into the HE plaintext ring Z_t (centered lift).
inline std::uint64_t fp_to_ring(std::int64_t raw, std::uint64_t t) {
  const auto m = static_cast<std::int64_t>(t);
  std::int64_t r = raw % m;
  if (r < 0) r += m;
  return static_cast<std::uint64_t>(r);
}

// Inverse of fp_to_ring: centered representative in (-t/2, t/2].
inline std::int64_t fp_from_ring(std::uint64_t v, std::uint64_t t) {
  if (v > t / 2) return static_cast<std::int64_t>(v) - static_cast<std::int64_t>(t);
  return static_cast<std::int64_t>(v);
}

}  // namespace primer
