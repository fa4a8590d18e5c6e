#include "gc/fixed_circuits.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace primer {

namespace {

// --- intervals ---------------------------------------------------------------

[[noreturn]] void interval_error(const std::string& what) {
  throw std::logic_error("fixed circuit: " + what);
}

std::int64_t add_i(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    interval_error("interval overflows int64");
  }
  return r;
}

std::int64_t sub_i(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) {
    interval_error("interval overflows int64");
  }
  return r;
}

std::int64_t mul_i(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    interval_error("interval overflows int64");
  }
  return r;
}

std::int64_t pow2(std::size_t k) {
  if (k > 62) interval_error("2^" + std::to_string(k) + " leaves int64");
  return std::int64_t{1} << k;
}

// Bits of the narrowest two's-complement bus holding every value in [lo, hi].
std::size_t width_of(std::int64_t lo, std::int64_t hi) {
  std::size_t w = 1;
  while (w < 64 && (lo < -(std::int64_t{1} << (w - 1)) ||
                    hi >= (std::int64_t{1} << (w - 1)))) {
    ++w;
  }
  return w;
}

// The one narrowing helper.  `bits` holds a value known to lie in [lo, hi]
// (at least wherever the result is used); resize it to the width that
// interval needs, and pin a sign bit the interval fixes to the constant
// wire so the builder folds the gates that read it.
SignedBus fit(CircuitBuilder& b, const Bus& bits, std::int64_t lo,
              std::int64_t hi) {
  const std::size_t w = width_of(lo, hi);
  if (lo == hi) {
    return SignedBus(b.constant_bus(static_cast<std::uint64_t>(lo), w), lo, hi);
  }
  Bus out = b.sign_extend(bits, w);
  if (lo >= 0) out.back() = b.zero();
  if (hi < 0) out.back() = b.one();
  return SignedBus(std::move(out), lo, hi);
}

SignedBus constant(CircuitBuilder& b, std::int64_t v) {
  return fit(b, {}, v, v);
}

// --- interval ops ------------------------------------------------------------

SignedBus plus(CircuitBuilder& b, const SignedBus& x, const SignedBus& y) {
  const std::int64_t lo = add_i(x.lo, y.lo);
  const std::int64_t hi = add_i(x.hi, y.hi);
  const std::size_t w = width_of(lo, hi);
  return fit(b, b.add(b.sign_extend(x.bits, w), b.sign_extend(y.bits, w)), lo,
             hi);
}

SignedBus minus(CircuitBuilder& b, const SignedBus& x, const SignedBus& y) {
  const std::int64_t lo = sub_i(x.lo, y.hi);
  const std::int64_t hi = sub_i(x.hi, y.lo);
  const std::size_t w = width_of(lo, hi);
  return fit(b, b.sub(b.sign_extend(x.bits, w), b.sign_extend(y.bits, w)), lo,
             hi);
}

// x < y, folded to a constant when the intervals decide it.
std::int32_t less(CircuitBuilder& b, const SignedBus& x, const SignedBus& y) {
  if (x.hi < y.lo) return b.one();
  if (x.lo >= y.hi) return b.zero();
  return minus(b, x, y).bits.back();
}

// sel ? t : f.
SignedBus pick(CircuitBuilder& b, std::int32_t sel, const SignedBus& t,
               const SignedBus& f) {
  const std::int64_t lo = std::min(t.lo, f.lo);
  const std::int64_t hi = std::max(t.hi, f.hi);
  const std::size_t w = width_of(lo, hi);
  return fit(b, b.mux(sel, b.sign_extend(t.bits, w), b.sign_extend(f.bits, w)),
             lo, hi);
}

// Arithmetic shift right (floor division by 2^k): free.
SignedBus shift_right(CircuitBuilder& b, const SignedBus& x, std::size_t k) {
  k = std::min<std::size_t>(k, 63);
  return fit(b, b.asr(x.bits, k), x.lo >> k, x.hi >> k);
}

// x * 2^k: free.
SignedBus shift_left(CircuitBuilder& b, const SignedBus& x, std::size_t k) {
  Bus bits(k, b.zero());
  bits.insert(bits.end(), x.bits.begin(), x.bits.end());
  return fit(b, bits, mul_i(x.lo, pow2(k)), mul_i(x.hi, pow2(k)));
}

// Signed product.  Row i of the narrower operand n adds (a AND n_i) << i,
// and its sign row subtracts; each row ANDs a's sign bit once for all of
// its sign-extension bits, and every partial sum is sized by its own
// interval.  Rows of constant-zero bits cost nothing.
SignedBus times(CircuitBuilder& b, const SignedBus& x, const SignedBus& y) {
  const std::int64_t c[] = {mul_i(x.lo, y.lo), mul_i(x.lo, y.hi),
                            mul_i(x.hi, y.lo), mul_i(x.hi, y.hi)};
  const std::int64_t lo = *std::min_element(c, c + 4);
  const std::int64_t hi = *std::max_element(c, c + 4);
  const bool x_wider = x.bits.size() >= y.bits.size();
  const SignedBus& a = x_wider ? x : y;
  const SignedBus& n = x_wider ? y : x;
  SignedBus acc = constant(b, 0);
  for (std::size_t i = 0; i < n.bits.size(); ++i) {
    if (n.bits[i] == b.zero()) continue;
    Bus row(a.bits.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = b.and_gate(a.bits[j], n.bits[i]);
    }
    const SignedBus r =
        shift_left(b,
                   fit(b, row, std::min<std::int64_t>(0, a.lo),
                       std::max<std::int64_t>(0, a.hi)),
                   i);
    acc = i + 1 == n.bits.size() ? minus(b, acc, r) : plus(b, acc, r);
  }
  return fit(b, acc.bits, lo, hi);
}

// |x|.
SignedBus magnitude(CircuitBuilder& b, const SignedBus& x) {
  if (x.lo >= 0) return x;
  const SignedBus neg = minus(b, constant(b, 0), x);
  return fit(b, pick(b, x.bits.back(), neg, x).bits,
             x.hi < 0 ? neg.lo : 0, std::max(neg.hi, x.hi));
}

// x * x from |x| = u: a product's partial products u_i u_j appear twice
// in a square, so row i needs only u_i at bit 2i and u_i u_j (j > i) at
// bit i + j + 1 — about half the AND gates of times(x, x).
SignedBus square(CircuitBuilder& b, const SignedBus& x) {
  const SignedBus u = magnitude(b, x);
  const std::size_t w = u.bits.size() - 1;  // below the zero sign bit
  SignedBus acc = constant(b, 0);
  for (std::size_t i = 0; i < w; ++i) {
    Bus row(w + i + 2, b.zero());
    std::int64_t row_hi = 0;
    auto set = [&](std::size_t bit, std::int32_t wire) {
      row[bit] = wire;
      if (wire != b.zero()) row_hi = add_i(row_hi, pow2(bit));
    };
    set(2 * i, u.bits[i]);
    for (std::size_t j = i + 1; j < w; ++j) {
      set(i + j + 1, b.and_gate(u.bits[i], u.bits[j]));
    }
    acc = plus(b, acc, fit(b, row, 0, row_hi));
  }
  return fit(b, acc.bits, mul_i(u.lo, u.lo), mul_i(u.hi, u.hi));
}

// Saturates x to the k-bit two's-complement range.  x fits iff its bits
// from k-1 up all equal its sign: one OR chain, then one mux per kept bit.
SignedBus saturate(CircuitBuilder& b, const SignedBus& x, std::size_t k) {
  if (k >= 64) return x;
  const std::int64_t mn = -(std::int64_t{1} << (k - 1));
  const std::int64_t mx = -(mn + 1);
  if (x.lo >= mn && x.hi <= mx) return x;
  const std::int32_t sign = x.bits.back();
  std::int32_t over = b.zero();
  for (std::size_t i = k - 1; i + 1 < x.bits.size(); ++i) {
    over = b.or_gate(over, b.xor_gate(x.bits[i], sign));
  }
  // The saturated value (mn or mx) is the sign at bit k-1 and its
  // complement below; bit k-1 of a fitting x equals the sign too.
  const std::int32_t not_sign = b.not_gate(sign);
  Bus out(k, sign);
  for (std::size_t i = 0; i + 1 < k; ++i) {
    out[i] = b.mux_bit(over, not_sign, x.bits[i]);
  }
  return fit(b, out, std::clamp(x.lo, mn, mx), std::clamp(x.hi, mn, mx));
}

// Saturates to the narrowest two's-complement range holding [lo, hi], then
// compares and replaces only on a side that range leaves open.  Where a
// replacement is not selected x lies inside it, so x narrows first.
SignedBus clamp(CircuitBuilder& b, SignedBus x, std::int64_t lo,
                std::int64_t hi) {
  x = saturate(b, x, width_of(lo, hi));
  if (x.lo < lo) {
    const std::int32_t below = less(b, x, constant(b, lo));
    x = pick(b, below, constant(b, lo), fit(b, x.bits, lo, std::max(lo, x.hi)));
  }
  if (x.hi > hi) {
    const std::int32_t above = less(b, constant(b, hi), x);
    x = pick(b, above, constant(b, hi), fit(b, x.bits, std::min(hi, x.lo), hi));
  }
  return x;
}

// max(x, 0).
SignedBus relu(CircuitBuilder& b, const SignedBus& x) {
  if (x.lo >= 0) return x;
  return pick(b, x.bits.back(), constant(b, 0),
              fit(b, x.bits, 0, std::max<std::int64_t>(0, x.hi)));
}

// Quotient of a non-negative n by a non-negative d that the caller knows
// to be at most q_hi: restoring division over the quotient's bits only.
SignedBus divide(CircuitBuilder& b, const SignedBus& n, const SignedBus& d,
                 std::int64_t q_hi) {
  if (n.lo < 0 || d.lo < 0) interval_error("divide: negative operand");
  const Bus magnitude(d.bits.begin(), d.bits.end() - 1);  // drop the 0 sign
  return fit(b, b.div(n.bits, magnitude, width_of(0, q_hi) - 1), 0, q_hi);
}

// Truncating (toward zero) division by a positive constant, as C++ `/`.
SignedBus div_const(CircuitBuilder& b, const SignedBus& x, std::int64_t d) {
  const std::int64_t lo = x.lo / d;
  const std::int64_t hi = x.hi / d;
  if ((d & (d - 1)) == 0) {
    // A power of two: add d - 1 to a negative value, then shift.
    const std::size_t k = width_of(0, d) - 2;
    if (x.lo >= 0) return shift_right(b, x, k);
    Bus bias(k, x.bits.back());
    bias.push_back(b.zero());
    return fit(b, shift_right(b, plus(b, x, fit(b, bias, 0, d - 1)), k).bits,
               lo, hi);
  }
  // Otherwise restoring division of |x| at its width.
  const SignedBus mag = magnitude(b, x);
  const SignedBus q = divide(b, mag, constant(b, d), mag.hi / d);
  if (x.lo >= 0) return q;
  return fit(b, pick(b, x.bits.back(), minus(b, constant(b, 0), q), q).bits,
             lo, hi);
}

// --- piecewise-linear tables -------------------------------------------------

// PWL table shared by circuit construction and the int64 reference.  Slopes
// carry kSlopeExtraBits more fractional precision than the value format so
// slope-quantization error does not dominate the approximation error.
constexpr int kSlopeExtraBits = 6;

struct PwlTable {
  std::int64_t lo_raw = 0;
  std::int64_t hi_raw = 0;
  std::size_t seg_shift = 0;  // log2 of raw segment width
  std::size_t shift = 0;      // fractional bits of a slope
  std::vector<std::int64_t> slope_raw;       // frac + kSlopeExtraBits bits
  std::vector<std::int64_t> intercept_raw;   // frac bits
};

PwlTable make_pwl_table(const PwlSpec& spec, const FixedPointFormat& fmt) {
  PwlTable tb;
  tb.lo_raw = fp_encode(spec.lo, fmt);
  tb.hi_raw = fp_encode(spec.hi, fmt);
  tb.shift = static_cast<std::size_t>(fmt.frac_bits + kSlopeExtraBits);
  const std::int64_t range = tb.hi_raw - tb.lo_raw;
  if (range <= 0 || (range & (range - 1)) != 0) {
    throw std::invalid_argument(
        "PwlSpec: (hi-lo)*scale must be a positive power of two");
  }
  int range_log2 = 0;
  while ((std::int64_t{1} << range_log2) < range) ++range_log2;
  if (spec.segments_log2 > range_log2) {
    throw std::invalid_argument("PwlSpec: more segments than raw steps");
  }
  tb.seg_shift = static_cast<std::size_t>(range_log2 - spec.segments_log2);
  const std::size_t segs = std::size_t{1} << spec.segments_log2;
  const std::int64_t seg_raw = range >> spec.segments_log2;
  for (std::size_t s = 0; s < segs; ++s) {
    const std::int64_t a_raw = tb.lo_raw + static_cast<std::int64_t>(s) * seg_raw;
    const std::int64_t b_raw = a_raw + seg_raw;
    const double a = fp_decode(a_raw, fmt);
    const double bx = fp_decode(b_raw, fmt);
    const double fa = spec.fn(a);
    const double fb = spec.fn(bx);
    const double slope = (fb - fa) / (bx - a);
    const double intercept = fa - slope * a;
    const double slope_scale = static_cast<double>(std::int64_t{1} << tb.shift);
    tb.slope_raw.push_back(
        static_cast<std::int64_t>(std::nearbyint(slope * slope_scale)));
    tb.intercept_raw.push_back(fp_encode(intercept, fmt));
  }
  return tb;
}

// The reference PWL: clamp into [lo, hi - 1] (so x == hi cannot index one
// past the last segment), then the segment's line.
std::int64_t pwl_eval(const PwlTable& tb, std::int64_t x) {
  const std::int64_t xc = std::clamp(x, tb.lo_raw, tb.hi_raw - 1);
  const auto seg = static_cast<std::size_t>((xc - tb.lo_raw) >> tb.seg_shift);
  return ((xc * tb.slope_raw[seg]) >> tb.shift) + tb.intercept_raw[seg];
}

// One-hot decode of an LSB-first index: hot[s] = (idx == s).
std::vector<std::int32_t> decode(CircuitBuilder& b, const Bus& idx) {
  std::vector<std::int32_t> hot{b.one()};
  for (std::size_t j = idx.size(); j-- > 0;) {
    std::vector<std::int32_t> next;
    next.reserve(2 * hot.size());
    for (const std::int32_t h : hot) {
      const std::int32_t on = b.and_gate(h, idx[j]);
      next.push_back(b.xor_gate(h, on));
      next.push_back(on);
    }
    hot = std::move(next);
  }
  return hot;
}

// values[s] for the one hot index s, known to lie in [s0, s1]: each bit is
// the XOR of the decoder outputs whose value sets it, so no AND gates.
SignedBus select(CircuitBuilder& b, const std::vector<std::int32_t>& hot,
                 const std::vector<std::int64_t>& values, std::size_t s0,
                 std::size_t s1) {
  const auto first = values.begin() + static_cast<long>(s0);
  const auto last = values.begin() + static_cast<long>(s1) + 1;
  const std::int64_t lo = *std::min_element(first, last);
  const std::int64_t hi = *std::max_element(first, last);
  Bus bits(width_of(lo, hi), b.zero());
  for (std::size_t s = s0; s <= s1; ++s) {
    for (std::size_t j = 0; j < bits.size(); ++j) {
      if ((static_cast<std::uint64_t>(values[s]) >> j) & 1) {
        bits[j] = b.xor_gate(bits[j], hot[s]);
      }
    }
  }
  return fit(b, bits, lo, hi);
}

// Circuit form of pwl_eval.  With a_s the first input of segment s and
// low = xc - a_s, xc * slope_s = low * slope_s + a_s * slope_s, so the
// circuit multiplies only low's seg_shift bits and selects, beside the
// slope, base_s = a_s * slope_s + (intercept_s << shift):
//     y = (low * slope_s + base_s) >> shift.
// The output interval comes from the segments' end points, because each
// segment's line is monotone.
SignedBus pwl(CircuitBuilder& b, const SignedBus& x, const PwlTable& tb) {
  const SignedBus xc = clamp(b, x, tb.lo_raw, tb.hi_raw - 1);
  const SignedBus off = minus(b, xc, constant(b, tb.lo_raw));
  const std::size_t segs = tb.slope_raw.size();
  std::size_t k = 0;
  while ((std::size_t{1} << k) < segs) ++k;
  const Bus ob = b.zero_extend(off.bits, tb.seg_shift + k);
  const std::int64_t seg_raw = std::int64_t{1} << tb.seg_shift;
  Bus low_bits(ob.begin(), ob.begin() + static_cast<long>(tb.seg_shift));
  low_bits.push_back(b.zero());
  const SignedBus low = fit(b, low_bits, 0, std::min(off.hi, seg_raw - 1));
  const auto s0 = static_cast<std::size_t>(off.lo >> tb.seg_shift);
  const auto s1 = static_cast<std::size_t>(off.hi >> tb.seg_shift);

  const auto hot =
      decode(b, Bus(ob.begin() + static_cast<long>(tb.seg_shift), ob.end()));
  std::vector<std::int64_t> base(segs);
  std::int64_t ylo = std::numeric_limits<std::int64_t>::max();
  std::int64_t yhi = std::numeric_limits<std::int64_t>::min();
  for (std::size_t s = 0; s < segs; ++s) {
    const std::int64_t a_s = tb.lo_raw + static_cast<std::int64_t>(s) * seg_raw;
    base[s] = add_i(mul_i(a_s, tb.slope_raw[s]),
                    mul_i(tb.intercept_raw[s], pow2(tb.shift)));
    if (s < s0 || s > s1) continue;
    for (const std::int64_t end :
         {std::max(a_s, xc.lo), std::min(a_s + seg_raw - 1, xc.hi)}) {
      ylo = std::min(ylo, pwl_eval(tb, end));
      yhi = std::max(yhi, pwl_eval(tb, end));
    }
  }
  const SignedBus prod = times(b, low, select(b, hot, tb.slope_raw, s0, s1));
  const SignedBus y =
      shift_right(b, plus(b, prod, select(b, hot, base, s0, s1)), tb.shift);
  return fit(b, y.bits, ylo, yhi);
}

PwlSpec gelu_pwl_spec() { return PwlSpec{-4.0, 4.0, 5, &gelu_double}; }

PwlSpec exp_pwl_spec(int segments_log2) {
  return PwlSpec{-8.0, 0.0, segments_log2,
                 [](double x) { return std::exp(x); }};
}

// The i-th width-w share in a packed input bus.
Bus slice(const Bus& bus, std::size_t i, std::size_t w) {
  return Bus(bus.begin() + static_cast<long>(i * w),
             bus.begin() + static_cast<long>((i + 1) * w));
}

// Reconstructs one value, truncates it by frac_shift and saturates it to
// the fixed-point format.
SignedBus reconstruct_fixed(CircuitBuilder& b, const Bus& sg, const Bus& se,
                            std::uint64_t t, std::size_t frac_shift,
                            const FixedPointFormat& fmt) {
  return saturate(
      b, shift_right(b, reconstruct_centered(b, sg, se, t), frac_shift),
      static_cast<std::size_t>(fmt.total_bits));
}

}  // namespace

SignedBus::SignedBus(Bus bits_in, std::int64_t lo_in, std::int64_t hi_in)
    : bits(std::move(bits_in)), lo(lo_in), hi(hi_in) {
  if (lo > hi) interval_error("empty interval");
  if (bits.size() < width_of(lo, hi)) {
    interval_error("interval wider than its " + std::to_string(bits.size()) +
                   "-bit bus");
  }
}

SignedBus::SignedBus(Bus bits_in) : bits(std::move(bits_in)) {
  const std::size_t w = bits.size();
  if (w == 0 || w > 64) interval_error("bus of " + std::to_string(w) + " bits");
  lo = w == 64 ? std::numeric_limits<std::int64_t>::min()
               : -(std::int64_t{1} << (w - 1));
  hi = -(lo + 1);
}

double gelu_double(double x) {
  return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

PwlSpec layernorm_rsqrt_spec() {
  // 1/sqrt over (0, 16) with the singularity clamped at 1/64; 64 segments.
  return PwlSpec{0.0, 16.0, 6, [](double x) {
                   return 1.0 / std::sqrt(std::max(x, 1.0 / 64.0));
                 }};
}

std::size_t share_width(std::uint64_t t) {
  std::size_t w = 0;
  while ((std::uint64_t{1} << w) < t) ++w;
  return w;
}

SignedBus reconstruct_centered(CircuitBuilder& b, const Bus& sa, const Bus& sb,
                               std::uint64_t t) {
  // s = sa + sb lies in [0, 2t - 2], and its centered value is s, s - t or
  // s - 2t: t comes off once s passes t/2 and again once it passes t + t/2.
  std::int32_t carry = 0;
  Bus s = b.add(sa, sb, &carry);
  s.push_back(carry);
  const std::int32_t once = b.ge_const(s, t / 2 + 1);
  const std::int32_t twice = b.ge_const(s, t + t / 2 + 1);
  const std::int64_t lo =
      static_cast<std::int64_t>(t / 2 + 1) - static_cast<std::int64_t>(t);
  const auto hi = static_cast<std::int64_t>(t / 2);
  // Each bit of (once + twice) * t is a wire: twice implies once, so where
  // only t sets the bit it is once ^ twice.
  Bus m(width_of(lo, hi));
  for (std::size_t j = 0; j < m.size(); ++j) {
    const bool in_t = (t >> j) & 1;
    const bool in_2t = ((2 * t) >> j) & 1;
    m[j] = in_t ? (in_2t ? once : b.xor_gate(once, twice))
                : (in_2t ? twice : b.zero());
  }
  return fit(b, b.sub(b.zero_extend(s, m.size()), m), lo, hi);
}

Bus embed_mod_t(CircuitBuilder& b, const SignedBus& v, std::uint64_t t) {
  const auto ring = static_cast<std::int64_t>(t);
  if (v.lo < -ring || v.hi >= ring) interval_error("value outside (-t, t)");
  const std::size_t w = share_width(t);
  const Bus bits = b.sign_extend(v.bits, w);
  if (v.lo >= 0) return bits;
  // A negative value gains t: t's bits masked by the sign, free of gates.
  const std::int32_t neg = v.bits.back();
  Bus plus_t(w);
  for (std::size_t j = 0; j < w; ++j) {
    plus_t[j] = ((t >> j) & 1) ? neg : b.zero();
  }
  return b.add(bits, plus_t);
}

SignedBus pwl_apply(CircuitBuilder& b, const SignedBus& x, const PwlSpec& spec,
                    const FixedPointFormat& fmt) {
  const SignedBus y = pwl(b, x, make_pwl_table(spec, fmt));
  if (y.bits.size() >= x.bits.size()) return y;
  return SignedBus(b.sign_extend(y.bits, x.bits.size()), y.lo, y.hi);
}

std::int64_t pwl_reference(std::int64_t x_raw, const PwlSpec& spec,
                           const FixedPointFormat& fmt) {
  return pwl_eval(make_pwl_table(spec, fmt), x_raw);
}

Circuit make_activation_circuit(const ActivationCircuitSpec& spec) {
  CircuitBuilder b;
  const std::size_t w = share_width(spec.t);
  const Bus sg = b.add_input_bus(w * spec.count);
  const Bus se = b.add_input_bus(w * spec.count);
  const Bus rc = b.add_input_bus(w * spec.count);
  const PwlTable gelu = make_pwl_table(gelu_pwl_spec(), spec.fmt);
  const SignedBus gelu_hi = constant(b, fp_encode(4.0, spec.fmt));

  for (std::size_t i = 0; i < spec.count; ++i) {
    SignedBus v = reconstruct_fixed(b, slice(sg, i, w), slice(se, i, w), spec.t,
                                    spec.frac_shift, spec.fmt);
    switch (spec.act) {
      case Activation::kIdentity:
        break;
      case Activation::kRelu:
        v = relu(b, v);
        break;
      case Activation::kGelu: {
        const SignedBus g = pwl(b, v, gelu);
        // Above the PWL range GELU(x) = x.
        const std::int32_t above = less(b, gelu_hi, v);
        v = pick(b, above, v, g);
        break;
      }
    }
    b.append_outputs(
        b.sub_mod(embed_mod_t(b, v, spec.t), slice(rc, i, w), spec.t));
  }
  return b.build();
}

std::int64_t activation_reference(std::int64_t x_raw, std::size_t frac_shift,
                                  Activation act,
                                  const FixedPointFormat& fmt) {
  const std::int64_t v = fp_saturate(x_raw >> frac_shift, fmt);
  switch (act) {
    case Activation::kIdentity:
      return v;
    case Activation::kRelu:
      return v < 0 ? 0 : v;
    case Activation::kGelu:
      if (v > fp_encode(4.0, fmt)) return v;
      return pwl_reference(v, gelu_pwl_spec(), fmt);
  }
  return v;
}

Circuit make_softmax_circuit(const SoftmaxCircuitSpec& spec) {
  CircuitBuilder b;
  const std::size_t w = share_width(spec.t);
  const std::size_t n = spec.count;
  const Bus sg = b.add_input_bus(w * n);
  const Bus se = b.add_input_bus(w * n);
  const Bus rc = b.add_input_bus(w * n);
  const PwlTable exp_table =
      make_pwl_table(exp_pwl_spec(spec.exp_segments_log2), spec.fmt);

  std::vector<SignedBus> vals;
  vals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals.push_back(reconstruct_fixed(b, slice(sg, i, w), slice(se, i, w),
                                     spec.t, spec.frac_shift, spec.fmt));
  }

  // Row max for numerical stability of the PWL exp.
  SignedBus m = vals[0];
  for (std::size_t i = 1; i < n; ++i) {
    const std::int32_t lt = less(b, m, vals[i]);
    m = pick(b, lt, vals[i], m);
  }

  std::vector<SignedBus> exps;
  exps.reserve(n);
  SignedBus sum = constant(b, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const SignedBus d = minus(b, vals[i], m);
    // v_i - max <= 0, since m is the row's max.
    const SignedBus e = pwl(b, fit(b, d.bits, d.lo, 0), exp_table);
    // exp output is non-negative by construction of the table, but the PWL
    // arithmetic can undershoot by an ulp near -8; clamp at zero.
    exps.push_back(relu(b, e));
    sum = plus(b, sum, exps.back());
  }

  const std::size_t frac = static_cast<std::size_t>(spec.fmt.frac_bits);
  for (std::size_t i = 0; i < n; ++i) {
    // out = (e_i << frac) / sum — exact fixed-point normalization.  The row
    // sum is at least each exp, so the quotient is at most 2^frac.
    const SignedBus q =
        divide(b, shift_left(b, exps[i], frac), sum, spec.fmt.scale());
    b.append_outputs(
        b.sub_mod(embed_mod_t(b, q, spec.t), slice(rc, i, w), spec.t));
  }
  return b.build();
}

Circuit make_layernorm_circuit(const LayerNormCircuitSpec& spec) {
  CircuitBuilder b;
  const std::size_t w = share_width(spec.t);
  const std::size_t d = spec.d;
  const Bus acc_g = b.add_input_bus(w * d);
  const Bus res_g = b.add_input_bus(w * d);
  const Bus acc_e = b.add_input_bus(w * d);
  const Bus res_e = b.add_input_bus(w * d);
  const Bus rc = b.add_input_bus(w * d);
  const auto total_bits = static_cast<std::size_t>(spec.fmt.total_bits);
  const auto frac = static_cast<std::size_t>(spec.fmt.frac_bits);

  // s_i = saturate(residual + truncate(acc)), and the row total.
  std::vector<SignedBus> s;
  s.reserve(d);
  SignedBus total = constant(b, 0);
  for (std::size_t i = 0; i < d; ++i) {
    const SignedBus acc = reconstruct_fixed(b, slice(acc_g, i, w),
                                            slice(acc_e, i, w), spec.t,
                                            spec.frac_shift, spec.fmt);
    const SignedBus res =
        reconstruct_centered(b, slice(res_g, i, w), slice(res_e, i, w), spec.t);
    s.push_back(saturate(b, plus(b, acc, res), total_bits));
    total = plus(b, total, s.back());
  }
  const auto dd = static_cast<std::int64_t>(d);
  const SignedBus mean = div_const(b, total, dd);

  // Centered values and variance.
  std::vector<SignedBus> c;
  c.reserve(d);
  SignedBus var_sum = constant(b, 0);
  for (std::size_t i = 0; i < d; ++i) {
    c.push_back(minus(b, s[i], mean));
    var_sum = plus(b, var_sum, shift_right(b, square(b, c[i]), frac));
  }
  const SignedBus var = div_const(b, var_sum, dd);
  const SignedBus rstd =
      pwl(b, var, make_pwl_table(layernorm_rsqrt_spec(), spec.fmt));

  // Per-element affine output, masked.
  for (std::size_t i = 0; i < d; ++i) {
    const SignedBus norm =
        saturate(b, shift_right(b, times(b, c[i], rstd), frac), total_bits);
    const SignedBus scaled =
        shift_right(b, times(b, norm, constant(b, spec.gamma[i])), frac);
    const SignedBus out =
        saturate(b, plus(b, scaled, constant(b, spec.beta[i])), total_bits);
    b.append_outputs(
        b.sub_mod(embed_mod_t(b, out, spec.t), slice(rc, i, w), spec.t));
  }
  return b.build();
}

std::vector<std::int64_t> fixed_softmax_reference(
    const std::vector<std::int64_t>& x, std::size_t frac_shift,
    const FixedPointFormat& fmt, int exp_segments_log2) {
  std::vector<std::int64_t> v(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    v[i] = fp_saturate(x[i] >> frac_shift, fmt);
  }
  std::int64_t m = v[0];
  for (const auto val : v) m = std::max(m, val);
  const PwlTable exp_table =
      make_pwl_table(exp_pwl_spec(exp_segments_log2), fmt);
  std::vector<std::int64_t> e(v.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    e[i] = std::max<std::int64_t>(0, pwl_eval(exp_table, v[i] - m));
    sum += e[i];
  }
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = (e[i] << fmt.frac_bits) / sum;
  }
  return out;
}

}  // namespace primer
