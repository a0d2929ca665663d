// The nearest-rank percentile helper behind every reported percentile.
#include "percentile.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(NearestRank, IsTheCeilingOfTheShare) {
  EXPECT_EQ(nearest_rank(100, 50), 50u);
  EXPECT_EQ(nearest_rank(100, 90), 90u);
  EXPECT_EQ(nearest_rank(100, 99), 99u);
  EXPECT_EQ(nearest_rank(1000, 99), 990u);
  EXPECT_EQ(nearest_rank(101, 50), 51u);
  EXPECT_EQ(nearest_rank(7, 99), 7u);
  EXPECT_EQ(nearest_rank(10, 100), 10u);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  for (double q : {1.0, 50.0, 90.0, 99.0, 100.0}) {
    std::vector<double> s = {4.25};
    EXPECT_DOUBLE_EQ(percentile(s, q), 4.25);
  }
}

TEST(Percentile, TiesReturnTheTiedValue) {
  std::vector<double> s = {7, 5, 5, 5};
  EXPECT_DOUBLE_EQ(percentile(s, 25), 5);
  EXPECT_DOUBLE_EQ(percentile(s, 75), 5);
  EXPECT_DOUBLE_EQ(percentile(s, 76), 7);
  EXPECT_DOUBLE_EQ(percentile(s, 100), 7);
}

TEST(Percentile, IsAnObservedSampleNeverAnInterpolation) {
  std::vector<double> s;
  for (int k = 100; k >= 1; --k) s.push_back(k * 1.5);
  EXPECT_DOUBLE_EQ(percentile(s, 50), 75.0);    // rank 50
  EXPECT_DOUBLE_EQ(percentile(s, 99), 148.5);   // rank 99
  EXPECT_DOUBLE_EQ(percentile(s, 99.5), 150.0); // rank 100
}

TEST(Percentile, EmptyIsZero) {
  std::vector<double> s;
  EXPECT_EQ(percentile(s, 50), 0);
}

TEST(Resolvable, NeedsTenSamplesBeyondTheRank) {
  // p50 needs 20 samples, p90 needs 100, p99 needs 1000.
  EXPECT_FALSE(resolvable(19, 50));
  EXPECT_TRUE(resolvable(20, 50));
  EXPECT_FALSE(resolvable(99, 90));
  EXPECT_TRUE(resolvable(100, 90));
  EXPECT_FALSE(resolvable(999, 99));
  EXPECT_TRUE(resolvable(1000, 99));
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_FALSE(resolvable(1, 50));
  EXPECT_FALSE(resolvable(0, 50));
}

TEST(ChunkedPercentile, IsTheMedianOfPerChunkPercentiles) {
  std::vector<double> s;
  for (int k = 1; k <= 1000; ++k) s.push_back(k);
  const ChunkedPercentile p = chunked_percentile(s, 50);
  EXPECT_EQ(p.chunks, 5u);
  EXPECT_TRUE(p.resolvable);
  EXPECT_DOUBLE_EQ(p.value, 500);  // chunk medians 100, 300, ..., 900
}

TEST(ChunkedPercentile, OneStalledChunkDoesNotMoveIt) {
  std::vector<double> s;
  for (double v : {1.0, 1.0, 9.0, 1.0, 1.0}) s.insert(s.end(), 100, v);
  std::vector<double> pooled = s;
  EXPECT_DOUBLE_EQ(percentile(pooled, 90), 9);
  EXPECT_DOUBLE_EQ(chunked_percentile(s, 90).value, 1);
}

TEST(ChunkedPercentile, UsesFewerChunksWhenSamplesAreScarce) {
  std::vector<double> s(300, 2.0);
  EXPECT_EQ(chunked_percentile(s, 90).chunks, 3u);  // 60 per chunk is short
  EXPECT_TRUE(chunked_percentile(s, 90).resolvable);
  std::vector<double> few(15, 2.0);
  const ChunkedPercentile p = chunked_percentile(few, 50);
  EXPECT_EQ(p.chunks, 1u);
  EXPECT_FALSE(p.resolvable);
  EXPECT_DOUBLE_EQ(p.value, 2.0);
}

}  // namespace
}  // namespace perfbench
