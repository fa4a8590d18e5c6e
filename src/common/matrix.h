// Dense row-major matrix over an arbitrary arithmetic element type.
//
// Mat<int64_t> carries fixed-point raw values through the protocols;
// Mat<double> is used by the float reference model.  Kept deliberately
// simple (no expression templates) — protocol correctness and operation
// accounting, not raw GEMM speed, is what the reproduction measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fixed_point.h"
#include "common/rng.h"

namespace primer {

template <typename T>
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Mat identity(std::size_t n) {
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  T& at(std::size_t r, std::size_t c) {
    bounds_check(r, c);
    return (*this)(r, c);
  }
  const T& at(std::size_t r, std::size_t c) const {
    bounds_check(r, c);
    return (*this)(r, c);
  }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  bool same_shape(const Mat& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  Mat operator+(const Mat& o) const {
    require_same_shape(o, "+");
    Mat out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
      out.data_[i] = data_[i] + o.data_[i];
    return out;
  }

  Mat operator-(const Mat& o) const {
    require_same_shape(o, "-");
    Mat out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
      out.data_[i] = data_[i] - o.data_[i];
    return out;
  }

  Mat& operator+=(const Mat& o) {
    require_same_shape(o, "+=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }

  Mat& operator-=(const Mat& o) {
    require_same_shape(o, "-=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }

  Mat operator*(const Mat& o) const {
    if (cols_ != o.rows_) {
      throw std::invalid_argument("Mat*: inner dims " + std::to_string(cols_) +
                                  " vs " + std::to_string(o.rows_));
    }
    Mat out(rows_, o.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T a = (*this)(i, k);
        if (a == T{}) continue;
        for (std::size_t j = 0; j < o.cols_; ++j) out(i, j) += a * o(k, j);
      }
    }
    return out;
  }

  Mat transposed() const {
    Mat out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
  }

  Mat scaled(T s) const {
    Mat out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
    return out;
  }

  bool operator==(const Mat& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  void bounds_check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Mat::at(" + std::to_string(r) + "," +
                              std::to_string(c) + ") on " +
                              std::to_string(rows_) + "x" +
                              std::to_string(cols_));
    }
  }

  void require_same_shape(const Mat& o, const char* op) const {
    if (!same_shape(o)) {
      throw std::invalid_argument(std::string("Mat") + op +
                                  ": shape mismatch");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatI = Mat<std::int64_t>;
using MatD = Mat<double>;

// Uniform random fixed-point matrix with entries drawn in [lo, hi] (real
// units), encoded with format `f`.
inline MatI random_fp_matrix(Rng& rng, std::size_t rows, std::size_t cols,
                             double lo, double hi,
                             const FixedPointFormat& f = kDefaultFixedPoint) {
  MatI m(rows, cols);
  for (auto& v : m.data())
    v = fp_encode(lo + (hi - lo) * rng.uniform_real(), f);
  return m;
}

// Fixed-point matrix product with the paper's truncation discipline: the
// accumulation happens at double precision width (2*frac_bits) and the
// result is truncated back to the 15-bit format.
inline MatI fp_matmul(const MatI& a, const MatI& b,
                      const FixedPointFormat& f = kDefaultFixedPoint) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("fp_matmul: inner dimension mismatch");
  }
  MatI out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      std::int64_t acc = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = fp_truncate(acc, f);
    }
  }
  return out;
}

inline MatD to_double(const MatI& m,
                      const FixedPointFormat& f = kDefaultFixedPoint) {
  MatD out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i)
    out.data()[i] = fp_decode(m.data()[i], f);
  return out;
}

inline MatI to_fixed(const MatD& m,
                     const FixedPointFormat& f = kDefaultFixedPoint) {
  MatI out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i)
    out.data()[i] = fp_encode(m.data()[i], f);
  return out;
}

}  // namespace primer
