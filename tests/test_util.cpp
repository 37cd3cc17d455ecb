// Unit tests for the utility substrate: RNG, statistics, tables, CSV.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sparsetrain {
namespace {

TEST(Require, ThrowsWithContext) {
  try {
    ST_REQUIRE(1 == 2, "message text");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("message text"), std::string::npos);
  }
}

TEST(Require, PassesQuietly) { EXPECT_NO_THROW(ST_REQUIRE(2 > 1, "ok")); }

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), ContractError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalNonzeroTracksNormalStream) {
  // Any mix of normal_nonzero() and normal() calls consumes the stream
  // exactly as normal() alone does, and a normal() call that takes a pair
  // normal_nonzero() cached unevaluated returns the same bits.
  Rng ref(23), mixed(23);
  for (int i = 0; i < 20000; ++i) {
    const double want = ref.normal();
    if (i % 3 == 1 || i % 7 == 0) {
      ASSERT_EQ(mixed.normal_nonzero(), want != 0.0) << "draw " << i;
    } else {
      const double got = mixed.normal();
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "draw " << i;
    }
  }
  EXPECT_EQ(mixed(), ref());
}

TEST(Rng, NormalWithParams) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(3.0, 0.5));
  EXPECT_NEAR(stats.mean(), 3.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // Child stream should not replay the parent stream.
  Rng parent_copy(5);
  (void)parent_copy();  // advance same as split() consumed
  EXPECT_NE(child(), parent_copy());
}

TEST(Stats, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-9);
}

TEST(Stats, InverseNormalCdfRoundTrips) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(inverse_normal_cdf(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(Stats, InverseNormalCdfKnownValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959963984540054, 1e-7);
  EXPECT_NEAR(inverse_normal_cdf(0.84134474606854293), 1.0, 1e-7);
}

TEST(Stats, InverseNormalCdfRejectsOutOfDomain) {
  EXPECT_THROW(inverse_normal_cdf(0.0), ContractError);
  EXPECT_THROW(inverse_normal_cdf(1.0), ContractError);
  EXPECT_THROW(inverse_normal_cdf(-0.5), ContractError);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Stats, RunningStatsMergeEqualsBulk) {
  Rng rng(31);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, RunningStatsEmpty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(Stats, MeanAbsAndDensity) {
  const std::vector<float> xs = {0.0f, -2.0f, 0.0f, 4.0f};
  EXPECT_DOUBLE_EQ(mean_abs(xs), 1.5);
  EXPECT_DOUBLE_EQ(zero_fraction(xs), 0.5);
  EXPECT_DOUBLE_EQ(density(xs), 0.5);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> xs = {1.0, 4.0};
  EXPECT_NEAR(geometric_mean(xs), 2.0, 1e-12);
}

TEST(Stats, Quantile) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"model", "speedup"});
  t.add_row({"AlexNet", "2.70x"});
  t.add_row({"ResNet-18", "2.10x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("ResNet-18"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TextTable::num(2.718, 2), "2.72");
  EXPECT_EQ(TextTable::times(2.7), "2.70x");
  EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
}

TEST(Csv, WritesQuotedValues) {
  const std::string path = "test_util_tmp.csv";
  {
    CsvWriter csv(path, {"name", "value"});
    csv.add_row({"plain", "1"});
    csv.add_row({"with,comma", "2"});
    csv.add_row({"with\"quote", "3"});
    csv.add_row({"a\rb", "4"});
    EXPECT_TRUE(csv.ok());
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("name,value"), std::string::npos);
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"with\"\"quote\""), std::string::npos);
  // A bare CR ends a record for RFC 4180 readers, so it must be quoted.
  EXPECT_NE(content.find("\"a\rb\",4"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sparsetrain
