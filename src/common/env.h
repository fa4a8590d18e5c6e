// Validated environment-variable parsing for runtime knobs.
//
// Every PRIMER_* knob used to be parsed ad hoc with std::stod/std::stoull,
// which silently accepted trailing junk ("0.1abc" -> 0.1) and wrapped
// negative integers around ("−1" -> 2^64-1).  A typo'd fault knob would
// then misconfigure a run without any indication.  These helpers make
// the failure mode deterministic:
//
//   * unset or empty variable        -> fallback value
//   * unparsable / trailing junk /
//     NaN / negative-into-unsigned   -> std::invalid_argument naming the
//                                       variable and the offending value
//   * parsable but out of [lo, hi]   -> clamped to the nearest bound
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace primer {

namespace detail {

inline bool env_raw(const char* name, std::string& out) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  out.assign(v);
  // Trim surrounding whitespace; an all-whitespace value counts as unset.
  std::size_t b = 0, e = out.size();
  while (b < e && std::isspace(static_cast<unsigned char>(out[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(out[e - 1]))) --e;
  out = out.substr(b, e - b);
  return !out.empty();
}

[[noreturn]] inline void env_reject(const char* name, const std::string& value,
                                    const char* why) {
  throw std::invalid_argument(std::string(name) + "=\"" + value + "\": " +
                              why);
}

}  // namespace detail

// Floating-point knob (probabilities, seconds).  Clamps to [lo, hi].
inline double env_double(const char* name, double fallback, double lo,
                         double hi) {
  std::string raw;
  if (!detail::env_raw(name, raw)) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || end != raw.c_str() + raw.size()) {
    detail::env_reject(name, raw, "not a number");
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    detail::env_reject(name, raw, "not a finite number");
  }
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

// Unsigned integer knob (frame offsets, seeds, counts).  Clamps to
// [lo, hi]; rejects negative values instead of wrapping them to 2^64-1.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                             std::uint64_t lo = 0,
                             std::uint64_t hi =
                                 std::numeric_limits<std::uint64_t>::max()) {
  std::string raw;
  if (!detail::env_raw(name, raw)) return fallback;
  if (raw[0] == '-') detail::env_reject(name, raw, "negative");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || end != raw.c_str() + raw.size()) {
    detail::env_reject(name, raw, "not an unsigned integer");
  }
  if (errno == ERANGE) detail::env_reject(name, raw, "out of 64-bit range");
  const auto u = static_cast<std::uint64_t>(v);
  if (u < lo) return lo;
  if (u > hi) return hi;
  return u;
}

// String knob (paths, mode selectors).  Unset / all-whitespace returns the
// fallback; surrounding whitespace is trimmed like the numeric knobs.
// Validation (allowed values, path existence) is the caller's job — only
// the caller knows what the string means.
inline std::string env_string(const char* name, const std::string& fallback) {
  std::string raw;
  if (!detail::env_raw(name, raw)) return fallback;
  return raw;
}

}  // namespace primer
