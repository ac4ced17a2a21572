#include "rdd/partitioner.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trace/wiki.h"

namespace stark {
namespace {

TEST(HashPartitioner, StableAndInRange) {
  HashPartitioner p(8);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Key k = rng.next_u64();
    const int a = p.get_partition(k);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 8);
    EXPECT_EQ(a, p.get_partition(k));  // deterministic
  }
}

TEST(HashPartitioner, SpreadsSequentialKeys) {
  HashPartitioner p(4);
  std::vector<int> counts(4, 0);
  for (Key k = 0; k < 4000; ++k) ++counts[static_cast<std::size_t>(p.get_partition(k))];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(HashPartitioner, EqualityByPartitionCount) {
  HashPartitioner a(4), b(4), c(8);
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
}

TEST(HashPartitioner, RejectsNonPositive) {
  EXPECT_THROW(HashPartitioner(0), std::invalid_argument);
}

TEST(RangePartitioner, BoundariesAreInclusiveUpper) {
  RangePartitioner p({10, 20}, 3);
  EXPECT_EQ(p.get_partition(0), 0);
  EXPECT_EQ(p.get_partition(10), 0);
  EXPECT_EQ(p.get_partition(11), 1);
  EXPECT_EQ(p.get_partition(20), 1);
  EXPECT_EQ(p.get_partition(21), 2);
  EXPECT_EQ(p.get_partition(~0ULL), 2);
}

TEST(RangePartitioner, PreservesKeyOrder) {
  RangePartitioner p({100, 200, 300}, 4);
  int last = 0;
  for (Key k = 0; k < 400; k += 7) {
    const int part = p.get_partition(k);
    EXPECT_GE(part, last);
    last = part;
  }
}

TEST(RangePartitioner, RejectsBadBounds) {
  EXPECT_THROW(RangePartitioner({5, 3}, 3), std::invalid_argument);
  EXPECT_THROW(RangePartitioner({1}, 3), std::invalid_argument);  // need n-1
  EXPECT_THROW(RangePartitioner({}, 0), std::invalid_argument);
}

TEST(RangePartitioner, SampleBalancesSkewedData) {
  // Zipf-skewed bytes: sampled bounds should split bytes roughly evenly.
  trace::WikiTraceGen::Config c;
  c.num_urls = 4096;
  trace::WikiTraceGen wiki(c);
  const auto hist = wiki.histogram(100 * kMiB, 1.0);
  const auto p = RangePartitioner::sample(hist, 8);
  const auto pb = hist.partition_bytes(
      [&](Key k) { return p->get_partition(k); }, 8);
  const double per = hist.total_bytes() / 8.0;
  for (double b : pb) {
    EXPECT_LT(b, 2.2 * per);  // no partition holds a wildly outsized share
  }
}

TEST(RangePartitioner, SampledFromDifferentDataNotEqual) {
  // The Spark-R pathology: per-RDD sampled partitioners differ.
  trace::WikiTraceGen wiki({});
  const auto h1 = wiki.histogram(100 * kMiB, 1.2);
  const auto h2 = wiki.histogram(100 * kMiB, 0.2);
  const auto p1 = RangePartitioner::sample(h1, 8);
  const auto p2 = RangePartitioner::sample(h2, 8);
  EXPECT_FALSE(p1->equals(*p2));
  EXPECT_TRUE(p1->equals(*RangePartitioner::sample(h1, 8)));  // same data
}

TEST(RangePartitioner, NotEqualToHash) {
  RangePartitioner r({10}, 2);
  HashPartitioner h(2);
  EXPECT_FALSE(r.equals(h));
  EXPECT_FALSE(h.equals(r));
}

TEST(StaticRangePartitioner, UniformBoundsCoverDomain) {
  const auto p = StaticRangePartitioner::uniform(4096, 8);
  EXPECT_EQ(p->num_partitions(), 8);
  // Uniform keys spread evenly.
  std::vector<int> counts(8, 0);
  for (Key k = 0; k < 4096; ++k) {
    ++counts[static_cast<std::size_t>(p->get_partition(k))];
  }
  for (int c : counts) EXPECT_EQ(c, 512);
}

TEST(StaticRangePartitioner, SharedBoundsAreEqual) {
  const auto a = StaticRangePartitioner::uniform(1024, 4);
  const auto b = StaticRangePartitioner::uniform(1024, 4);
  EXPECT_TRUE(a->equals(*b));
  // And it is interchangeable with a RangePartitioner of equal bounds.
  RangePartitioner plain(a->bounds(), 4);
  EXPECT_TRUE(a->equals(plain));
}

// A named partitioner case. The name is what gtest prints for the parameter,
// so discovered test names stay stable across builds instead of embedding a
// heap address.
struct PartitionerCase {
  const char* name;
  std::shared_ptr<const Partitioner> partitioner;
};

void PrintTo(const PartitionerCase& c, std::ostream* os) { *os << c.name; }

class PartitionerContract : public ::testing::TestWithParam<PartitionerCase> {};

TEST_P(PartitionerContract, TotalAndDeterministic) {
  const auto& p = GetParam().partitioner;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.next_below(1 << 20);
    const int part = p->get_partition(k);
    EXPECT_GE(part, 0);
    EXPECT_LT(part, p->num_partitions());
    EXPECT_EQ(part, p->get_partition(k));
  }
  EXPECT_TRUE(p->equals(*p));
  EXPECT_FALSE(p->describe().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PartitionerContract,
    ::testing::Values(
        PartitionerCase{"Hash1", std::make_shared<HashPartitioner>(1)},
        PartitionerCase{"Hash7", std::make_shared<HashPartitioner>(7)},
        PartitionerCase{"Range3", std::make_shared<RangePartitioner>(
                                      std::vector<Key>{1000, 500000}, 3)},
        PartitionerCase{"StaticRange16",
                        StaticRangePartitioner::uniform(1 << 20, 16)}));

}  // namespace
}  // namespace stark
