#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace stark {
namespace {

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatAccumulator, BasicMoments) {
  StatAccumulator s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // classic textbook set
}

TEST(StatAccumulator, SumMatches) {
  StatAccumulator s;
  s.add(1.5);
  s.add(2.5);
  s.add(-4.0);
  EXPECT_NEAR(s.sum(), 0.0, 1e-12);
}

TEST(StatAccumulator, MergeEquivalentToCombinedStream) {
  StatAccumulator a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatAccumulator, MergeWithEmpty) {
  StatAccumulator a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Distribution, PercentilesExact) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 100.0);
  EXPECT_NEAR(d.median(), 50.5, 1e-9);
  EXPECT_NEAR(d.percentile(0.99), 99.01, 0.1);
  EXPECT_NEAR(d.mean(), 50.5, 1e-9);
}

TEST(Distribution, SingleSample) {
  Distribution d;
  d.add(42.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 42.0);
}

TEST(Distribution, EmptyReturnsZero) {
  Distribution d;
  EXPECT_EQ(d.percentile(0.5), 0.0);
  EXPECT_EQ(d.mean(), 0.0);
}

TEST(Distribution, RejectsBadQuantile) {
  Distribution d;
  d.add(1.0);
  EXPECT_THROW(d.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(d.percentile(1.1), std::invalid_argument);
}

TEST(Distribution, AddAfterQueryResorts) {
  Distribution d;
  d.add(5.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);
  d.add(9.0);
  d.add(1.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
}

TEST(TimeSeries, BucketizeGroupsPoints) {
  TimeSeries ts;
  ts.add(0.5, 10.0);
  ts.add(1.5, 20.0);
  ts.add(1.9, 30.0);
  ts.add(5.0, 99.0);  // outside [0, 4)
  const auto buckets = ts.bucketize(0.0, 4.0, 1.0);
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].stats.count(), 1u);
  EXPECT_DOUBLE_EQ(buckets[0].stats.mean(), 10.0);
  EXPECT_EQ(buckets[1].stats.count(), 2u);
  EXPECT_DOUBLE_EQ(buckets[1].stats.mean(), 25.0);
  EXPECT_EQ(buckets[2].stats.count(), 0u);
}

TEST(TimeSeries, BucketizeDegenerate) {
  TimeSeries ts;
  ts.add(1.0, 1.0);
  EXPECT_TRUE(ts.bucketize(0.0, 1.0, 0.0).empty());
  EXPECT_TRUE(ts.bucketize(2.0, 1.0, 1.0).empty());
}

TEST(Fairness, SpreadAndJainOverMeans) {
  EXPECT_DOUBLE_EQ(max_min_spread({1.0, 3.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(jain_index({1.0, 3.0}), 16.0 / 20.0);  // (4)^2 / (2*10)
  EXPECT_DOUBLE_EQ(jain_index({2.0, 2.0, 2.0}), 1.0);
  // Fewer than two groups, a zero minimum, or all-zero means: no spread.
  EXPECT_DOUBLE_EQ(max_min_spread({}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_spread({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_spread({0.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(0.5e-3), "500.0 us");
  EXPECT_EQ(format_seconds(0.25), "250.0 ms");
  EXPECT_EQ(format_seconds(3.0), "3.00 s");
}

}  // namespace
}  // namespace stark
