// Tests for the secret-sharing substrate: ring arithmetic and
// share/reconstruct round trips.
#include <gtest/gtest.h>

#include "ss/secret_share.h"

namespace primer {
namespace {

constexpr std::uint64_t kT = (1ULL << 38) + 7;  // arbitrary odd modulus

TEST(ShareRing, ReduceAndCenter) {
  const ShareRing ring(101);
  EXPECT_EQ(ring.reduce(105), 4);
  EXPECT_EQ(ring.reduce(-1), 100);
  EXPECT_EQ(ring.center(100), -1);
  EXPECT_EQ(ring.center(50), 50);   // exactly t/2 stays positive
  EXPECT_EQ(ring.center(51), -50);
}

TEST(ShareRing, ShareReconstructRoundTrip) {
  const ShareRing ring(kT);
  Rng rng(1);
  for (int iter = 0; iter < 20; ++iter) {
    MatI v(3, 5);
    for (auto& x : v.data()) x = rng.uniform_int(-1000000, 1000000);
    const auto shares = ring.share(v, rng);
    EXPECT_EQ(ring.reconstruct(shares), v);
  }
}

TEST(ShareRing, SharesAreUniformlyMasked) {
  // The client share alone must reveal nothing: two different values share
  // to the same marginal distribution.  Sanity check: shares of zero and of
  // a large value have indistinguishable means.
  const ShareRing ring(kT);
  Rng rng(2);
  double mean0 = 0, mean1 = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    MatI zero(1, 1), big(1, 1);
    big(0, 0) = 123456789;
    mean0 += static_cast<double>(ring.share(zero, rng).client(0, 0));
    mean1 += static_cast<double>(ring.share(big, rng).client(0, 0));
  }
  const double t_half = static_cast<double>(kT) / 2;
  EXPECT_NEAR(mean0 / n / t_half, 1.0, 0.1);
  EXPECT_NEAR(mean1 / n / t_half, 1.0, 0.1);
}

TEST(ShareRing, MulMatchesWideArithmetic) {
  const ShareRing ring(kT);
  Rng rng(3);
  const MatI a = ring.random(rng, 4, 6);
  const MatI b = ring.random(rng, 6, 3);
  const MatI c = ring.mul(a, b);
  // Verify one entry against 128-bit arithmetic.
  unsigned __int128 acc = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    acc += (static_cast<unsigned __int128>(a(1, k)) *
            static_cast<unsigned __int128>(b(k, 2))) %
           kT;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(c(1, 2)),
            static_cast<std::uint64_t>(acc % kT));
}

}  // namespace
}  // namespace primer
