#include "util/percentile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace via {
namespace {

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_EQ(percentile(v, 0.0), 7.0);
  EXPECT_EQ(percentile(v, 50.0), 7.0);
  EXPECT_EQ(percentile(v, 100.0), 7.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v{9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, ClampsOutOfRange) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(percentile(v, -5.0), 1.0);
  EXPECT_EQ(percentile(v, 150.0), 3.0);
}

TEST(Cdf, BuildsMonotone) {
  Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.gaussian(0, 1));
  const auto cdf = build_cdf(v, 50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].cum_fraction, cdf[i].cum_fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cum_fraction, 1.0);
}

TEST(Cdf, SmallInputKeepsAllPoints) {
  const auto cdf = build_cdf({3.0, 1.0, 2.0}, 100);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_EQ(cdf[0].value, 1.0);
  EXPECT_EQ(cdf[2].value, 3.0);
}

TEST(Cdf, FractionAtQueries) {
  const auto cdf = build_cdf({1.0, 2.0, 3.0, 4.0}, 100);
  EXPECT_EQ(cdf_fraction_at(cdf, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_fraction_at(cdf, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf_fraction_at(cdf, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf_fraction_at(cdf, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf_fraction_at(cdf, 99.0), 1.0);
}

TEST(Cdf, EmptyIsZero) { EXPECT_EQ(cdf_fraction_at({}, 1.0), 0.0); }

TEST(P2, ExactWhileWarmingUp) {
  P2Quantile q(0.5);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);  // median of {1,3,5}
}

TEST(P2, ResetClears) {
  P2Quantile q(0.5);
  for (int i = 0; i < 100; ++i) q.add(i);
  q.reset();
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(q.value(), 0.0);
}

// Property sweep: P2 approximates the true quantile of several
// distributions within a few percent of the distribution's scale.
// gtest prints a P2Case as its raw bytes and ctest names each case after
// them, so the struct must have no padding: uninitialised padding made the
// case names change with the test binary's path and arguments.
struct P2Case {
  double quantile;
  std::int64_t distribution;  // 0 = uniform, 1 = gaussian, 2 = exponential
};
static_assert(sizeof(P2Case) == sizeof(double) + sizeof(std::int64_t));

class P2Accuracy : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2Accuracy, TracksTrueQuantile) {
  const auto [qv, dist] = GetParam();
  P2Quantile estimator(qv);
  Rng rng(hash_mix(static_cast<std::uint64_t>(qv * 1000), dist));
  std::vector<double> all;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    double x = 0;
    switch (dist) {
      case 0:
        x = rng.uniform(0, 100);
        break;
      case 1:
        x = rng.gaussian(50, 10);
        break;
      default:
        x = rng.exponential(20);
        break;
    }
    estimator.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  const double truth = percentile_sorted(all, qv * 100.0);
  const double scale = all[static_cast<std::size_t>(0.99 * n)] - all[0];
  EXPECT_NEAR(estimator.value(), truth, 0.03 * scale)
      << "q=" << qv << " dist=" << dist;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, P2Accuracy,
    ::testing::Values(P2Case{0.1, 0}, P2Case{0.5, 0}, P2Case{0.9, 0}, P2Case{0.1, 1},
                      P2Case{0.5, 1}, P2Case{0.9, 1}, P2Case{0.5, 2}, P2Case{0.9, 2},
                      P2Case{0.7, 2}, P2Case{0.95, 1}));

}  // namespace
}  // namespace via
