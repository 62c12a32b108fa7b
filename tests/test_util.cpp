#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cmath>
#include <set>

#include "util/histogram.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace harl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng a(42);
  Rng c = a.split();
  Rng d = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c.next_u32() == d.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowIsInRangeAndCoversAll) {
  Rng r(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint32_t v = r.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = r.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.next_normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, LognoiseSigmaZeroIsIdentity) {
  Rng r(1);
  EXPECT_EQ(r.next_lognoise(0.0), 1.0);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng r(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[r.pick_weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(Rng, PickWeightedAllZeroFallsBackUniform) {
  Rng r(19);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.pick_weighted(w));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Parse, PositiveStopsAfterTheDigits) {
  std::int64_t n = 0;
  const char* text = "16x9";
  EXPECT_EQ(parse_positive(text, &n), text + 2);
  EXPECT_EQ(n, 16);
  EXPECT_NE(parse_positive("9223372036854775807", &n), nullptr);
  EXPECT_EQ(n, INT64_MAX);
  for (const char* bad : {"", "0", "-5", "+5", " 5", "abc", "9223372036854775808"}) {
    EXPECT_EQ(parse_positive(bad, &n), nullptr) << '"' << bad << '"';
  }
}

TEST(Parse, U64FillsTheWholeText) {
  std::uint64_t n = 1;
  EXPECT_TRUE(parse_u64("0", &n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &n));
  EXPECT_EQ(n, UINT64_MAX);
  for (const char* bad : {"", "7x", "-1", "+1", " 1", "abc", "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad, &n)) << '"' << bad << '"';
  }
}

TEST(Parse, NonnegativeIsAFiniteDecimal) {
  double x = -1;
  EXPECT_TRUE(parse_nonnegative("0", &x));
  EXPECT_EQ(x, 0.0);
  EXPECT_TRUE(parse_nonnegative("2.5", &x));
  EXPECT_EQ(x, 2.5);
  EXPECT_TRUE(parse_nonnegative(".5e1", &x));
  EXPECT_EQ(x, 5.0);
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1.5ms", "inf", "nan", "0x10", "1e999"}) {
    EXPECT_FALSE(parse_nonnegative(bad, &x)) << '"' << bad << '"';
  }
}

TEST(Stats, BasicMoments) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  SampleStats s = compute_stats(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, EmptyInputIsZeroed) {
  SampleStats s = compute_stats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 10.0);
}

TEST(Stats, GeomeanOfPowers) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_EQ(geomean({1.0, -1.0}), 0.0);  // non-positive input
}

TEST(Stats, NormalizeToMax) {
  auto n = normalize_to_max({2.0, 4.0, 8.0});
  EXPECT_DOUBLE_EQ(n[0], 0.25);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng r(5);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    double v = r.next_range(-2, 7);
    xs.push_back(v);
    rs.add(v);
  }
  SampleStats batch = compute_stats(xs);
  EXPECT_NEAR(rs.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(rs.stddev(), batch.stddev, 1e-9);
  EXPECT_EQ(rs.min(), batch.min);
  EXPECT_EQ(rs.max(), batch.max);
}

TEST(Stats, EmaConverges) {
  Ema e(0.5);
  EXPECT_FALSE(e.initialized());
  e.update(10);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  for (int i = 0; i < 50; ++i) e.update(2.0);
  EXPECT_NEAR(e.value(), 2.0, 1e-9);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add("gemm", 1.5);
  t.add("conv", 42);
  std::string s = t.to_string();
  EXPECT_NE(s.find("gemm"), std::string::npos);
  EXPECT_NE(s.find("1.5000"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t;
  t.add_row({"a,b", "say \"hi\""});
  std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, AsciiBarProportional) {
  EXPECT_EQ(ascii_bar(5, 10, 10), "#####.....");
  EXPECT_EQ(ascii_bar(10, 10, 4), "####");
  EXPECT_EQ(ascii_bar(0, 10, 4), "....");
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);   // bin 0
  h.add(0.95);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(5.0);    // clamped to bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, FractionAtOrAbove) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 9; ++i) h.add(0.05);
  h.add(0.95);
  EXPECT_NEAR(h.fraction_at_or_above(0.9), 0.1, 1e-12);
}

TEST(Histogram, BinBoundsCoverRange) {
  Histogram h(-1.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), -1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 0.0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneCount) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.parallel_for(0, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ReentrantUseAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(64, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 10L * (63 * 64 / 2));
}

}  // namespace
}  // namespace harl
