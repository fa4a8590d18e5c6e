// Unit tests for src/common: RNG determinism and distributions, fixed-point
// codec, serialization round-trips, matrix algebra.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/fixed_point.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/timing.h"

namespace primer {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, CbdRangeAndMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.cbd(2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 20000, 0.0, 0.05);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(FixedPoint, EncodeDecodeRoundTrip) {
  for (double x : {0.0, 1.0, -1.0, 0.5, -0.25, 3.75, -12.125}) {
    EXPECT_DOUBLE_EQ(fp_decode(fp_encode(x)), x);
  }
}

TEST(FixedPoint, SaturatesAtRange) {
  const FixedPointFormat f;
  EXPECT_EQ(fp_encode(1e9), f.max_raw());
  EXPECT_EQ(fp_encode(-1e9), f.min_raw());
}

TEST(FixedPoint, TruncateMatchesDivision) {
  const FixedPointFormat f;
  const std::int64_t a = fp_encode(1.5, f);
  const std::int64_t b = fp_encode(2.25, f);
  const std::int64_t prod = fp_truncate(a * b, f);
  EXPECT_NEAR(fp_decode(prod, f), 1.5 * 2.25, 1.0 / f.scale());
}

TEST(FixedPoint, TruncateNegativeRoundsTowardNegInfinity) {
  const FixedPointFormat f;
  const std::int64_t a = fp_encode(-1.5, f);
  const std::int64_t b = fp_encode(0.5, f);
  EXPECT_NEAR(fp_decode(fp_truncate(a * b, f)), -0.75, 1.0 / f.scale());
}

TEST(FixedPoint, RingRoundTrip) {
  const std::uint64_t t = 65537;
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{12345}, std::int64_t{-32000}}) {
    EXPECT_EQ(fp_from_ring(fp_to_ring(v, t), t), v);
  }
}

TEST(FixedPoint, RingHalfBoundary) {
  const std::uint64_t t = 101;
  EXPECT_EQ(fp_from_ring(50, t), 50);   // t/2 = 50 -> positive
  EXPECT_EQ(fp_from_ring(51, t), -50);  // above half -> negative
}

TEST(Serialize, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(123456);
  w.u64(0xdeadbeefcafebabeULL);
  w.i64(-42);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter w;
  w.vec_u64({1, 2, 3});
  w.vec_i64({-1, 0, 5});
  ByteReader r(w.data());
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_i64(), (std::vector<std::int64_t>{-1, 0, 5}));
}

TEST(Serialize, TruncatedReadThrows) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.data());
  r.u32();
  EXPECT_THROW(r.u64(), std::out_of_range);
}

TEST(Serialize, HugeReadDoesNotOverflowBoundsCheck) {
  // A request near SIZE_MAX used to wrap `pos_ + n` and pass the check.
  ByteWriter w;
  w.u64(7);
  ByteReader r(w.data());
  char sink[8];
  // Volatile so the huge size is not a compile-time constant (silences the
  // static memcpy-bound diagnostic; the check throws before any copy).
  volatile std::size_t huge = std::numeric_limits<std::size_t>::max() - 2;
  EXPECT_THROW(r.bytes(sink, huge), std::out_of_range);
  EXPECT_THROW(r.skip(huge), std::out_of_range);
  EXPECT_EQ(r.u64(), 7u);  // reader still usable at its old position
}

TEST(Serialize, HostileVectorLengthThrowsBeforeAllocating) {
  // A 64-bit length field demanding ~2^64 elements must be rejected before
  // the vector is sized, and the message must carry offset and size.
  ByteWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max() / 4);  // length only
  ByteReader r(w.data());
  try {
    (void)r.vec_u64();
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
    EXPECT_NE(msg.find("length"), std::string::npos) << msg;
  }
  ByteWriter w2;
  w2.u64(std::numeric_limits<std::uint64_t>::max() / 4);
  ByteReader r2(w2.data());
  EXPECT_THROW((void)r2.vec_i64(), std::out_of_range);
}

TEST(Matrix, MultiplyIdentity) {
  Rng rng(3);
  const MatI a = random_fp_matrix(rng, 4, 4, -2, 2);
  EXPECT_EQ(a * MatI::identity(4), a);
  EXPECT_EQ(MatI::identity(4) * a, a);
}

TEST(Matrix, MultiplyKnownValues) {
  MatI a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  MatI b(3, 2);
  b(0, 0) = 7;  b(0, 1) = 8;
  b(1, 0) = 9;  b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const MatI c = a * b;
  EXPECT_EQ(c(0, 0), 58);
  EXPECT_EQ(c(0, 1), 64);
  EXPECT_EQ(c(1, 0), 139);
  EXPECT_EQ(c(1, 1), 154);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(5);
  const MatI a = random_fp_matrix(rng, 3, 7, -1, 1);
  EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(Matrix, ShapeMismatchThrows) {
  MatI a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  MatI c(4, 4);
  EXPECT_THROW(a + c, std::invalid_argument);
}

TEST(Matrix, AtBoundsCheck) {
  MatI a(2, 2);
  EXPECT_THROW(a.at(2, 0), std::out_of_range);
  EXPECT_THROW(a.at(0, 2), std::out_of_range);
}

TEST(Matrix, FpMatmulMatchesFloat) {
  Rng rng(21);
  const MatI a = random_fp_matrix(rng, 5, 6, -1.5, 1.5);
  const MatI b = random_fp_matrix(rng, 6, 4, -1.5, 1.5);
  const MatI c = fp_matmul(a, b);
  const MatD fa = to_double(a), fb = to_double(b);
  const MatD fc = fa * fb;
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(fp_decode(c(i, j)), fc(i, j), 0.05)
          << "entry " << i << "," << j;
    }
  }
}

TEST(Timing, StopwatchAdvances) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.seconds(), 0.0);
}

TEST(Timing, PhaseCostAccumulates) {
  CostAccumulator acc;
  acc.at("online", "qkv").compute_seconds = 1.5;
  acc.at("online", "softmax").compute_seconds = 0.5;
  acc.at("online", "softmax").bytes_sent = 100;
  const PhaseCost total = acc.phase_total("online");
  EXPECT_DOUBLE_EQ(total.compute_seconds, 2.0);
  EXPECT_EQ(total.bytes_sent, 100u);
  EXPECT_DOUBLE_EQ(acc.phase_total("offline").compute_seconds, 0.0);
}

}  // namespace
}  // namespace primer
