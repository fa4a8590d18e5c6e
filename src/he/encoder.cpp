#include "he/encoder.h"

#include <stdexcept>

namespace primer {

namespace {

std::size_t reverse_bits(std::size_t v, int bits) {
  std::size_t r = 0;
  for (int i = 0; i < bits; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

int ilog2(std::size_t n) {
  int l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

BatchEncoder::BatchEncoder(const HeContext& ctx)
    : ctx_(ctx), slots_(ctx.degree()) {
  const std::size_t n = ctx.degree();
  const int logn = ilog2(n);
  const u64 m = 2 * n;
  const std::size_t row = n / 2;
  index_map_.resize(n);
  u64 pos = 1;
  const u64 gen = 3;
  for (std::size_t i = 0; i < row; ++i) {
    const std::size_t idx1 = static_cast<std::size_t>((pos - 1) >> 1);
    const std::size_t idx2 = static_cast<std::size_t>((m - pos - 1) >> 1);
    index_map_[i] = reverse_bits(idx1, logn);
    index_map_[row + i] = reverse_bits(idx2, logn);
    pos = (pos * gen) % m;
  }
}

Plaintext BatchEncoder::encode(const std::vector<u64>& values) const {
  if (values.size() > slots_) {
    throw std::invalid_argument("BatchEncoder::encode: too many values");
  }
  const u64 t = ctx_.t();
  std::vector<u64> buf(slots_, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= t) {
      throw std::invalid_argument("BatchEncoder::encode: value >= t");
    }
    buf[index_map_[i]] = values[i];
  }
  ctx_.plain_ntt().inverse(buf);
  Plaintext pt;
  pt.coeffs = std::move(buf);
  return pt;
}

std::vector<u64> BatchEncoder::decode(const Plaintext& pt) const {
  if (pt.coeffs.size() != slots_) {
    throw std::invalid_argument("BatchEncoder::decode: wrong degree");
  }
  std::vector<u64> buf = pt.coeffs;
  ctx_.plain_ntt().forward(buf);
  std::vector<u64> out(slots_);
  for (std::size_t i = 0; i < slots_; ++i) out[i] = buf[index_map_[i]];
  return out;
}

}  // namespace primer
