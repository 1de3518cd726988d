/**
 * @file
 * Unit tests for SampleStats.
 */
#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace pod {
namespace {

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.Count(), 0u);
    EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.Min(), 0.0);
    EXPECT_DOUBLE_EQ(s.Max(), 0.0);
    EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.FractionAbove(1.0), 0.0);
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    s.AddAll({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.Count(), 4u);
    EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.Min(), 1.0);
    EXPECT_DOUBLE_EQ(s.Max(), 4.0);
    EXPECT_DOUBLE_EQ(s.Sum(), 10.0);
    EXPECT_NEAR(s.Stddev(), 1.1180339887, 1e-9);
}

TEST(SampleStats, PercentileInterpolation)
{
    SampleStats s;
    s.AddAll({10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(s.Percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.Percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.Percentile(50), 30.0);
    EXPECT_DOUBLE_EQ(s.Percentile(25), 20.0);
    // Between order statistics: 10% of the way from 10 to 20 at p=2.5.
    EXPECT_NEAR(s.Percentile(2.5), 11.0, 1e-9);
}

TEST(SampleStats, PercentileUnsortedInput)
{
    SampleStats s;
    s.AddAll({50.0, 10.0, 40.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(s.Median(), 30.0);
    // Adding after a sort must re-sort.
    s.Add(5.0);
    EXPECT_DOUBLE_EQ(s.Min(), 5.0);
    EXPECT_DOUBLE_EQ(s.Percentile(0), 5.0);
}

TEST(SampleStats, FractionAbove)
{
    SampleStats s;
    s.AddAll({0.1, 0.2, 0.3, 0.4});
    EXPECT_DOUBLE_EQ(s.FractionAbove(0.25), 0.5);
    EXPECT_DOUBLE_EQ(s.FractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.FractionAbove(0.4), 0.0);
}

TEST(SampleStats, ClearResets)
{
    SampleStats s;
    s.Add(1.0);
    s.Clear();
    EXPECT_EQ(s.Count(), 0u);
    EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(SampleStats, SingleSample)
{
    SampleStats s;
    s.Add(7.0);
    EXPECT_DOUBLE_EQ(s.Percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(s.Percentile(50), 7.0);
    EXPECT_DOUBLE_EQ(s.Percentile(100), 7.0);
    EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
}

TEST(SampleStats, MomentsUnchangedByPercentileQueries)
{
    // Order-sensitive sum: in insertion order the two 1.0s survive
    // (1e16 + 1 - 1e16 + 1 = 1), in sorted order both are absorbed
    // (-1e16 + 1 + 1 + 1e16 = 0). Moments must keep insertion order
    // whatever order statistics were asked for in between.
    SampleStats s;
    s.AddAll({1e16, 1.0, -1e16, 1.0});
    const double sum = s.Sum();
    const double mean = s.Mean();
    const double stddev = s.Stddev();
    EXPECT_EQ(sum, 1.0);
    EXPECT_EQ(s.Percentile(50), 1.0);
    EXPECT_EQ(s.Sum(), sum);
    EXPECT_EQ(s.Mean(), mean);
    EXPECT_EQ(s.Stddev(), stddev);
}

TEST(SampleStats, RepeatedValuesShareOneRun)
{
    SampleStats s;
    s.AddAll({0.5, 0.5, 0.5, 0.25, 0.25, 0.5});
    ASSERT_EQ(s.Runs().size(), 3u);
    EXPECT_EQ(s.Runs()[0].value, 0.5);
    EXPECT_EQ(s.Runs()[0].count, 3u);
    EXPECT_EQ(s.Runs()[1].value, 0.25);
    EXPECT_EQ(s.Runs()[1].count, 2u);
    EXPECT_EQ(s.Runs()[2].count, 1u);
    EXPECT_EQ(s.Count(), 6u);
    EXPECT_EQ(s.Percentile(50), 0.5);
    EXPECT_EQ(s.Min(), 0.25);
}

TEST(SampleStats, SignedZerosStayDistinctRuns)
{
    SampleStats s;
    s.AddAll({0.0, -0.0, -0.0});
    ASSERT_EQ(s.Runs().size(), 2u);
    EXPECT_FALSE(std::signbit(s.Runs()[0].value));
    EXPECT_TRUE(std::signbit(s.Runs()[1].value));
    EXPECT_EQ(s.Runs()[1].count, 2u);
}

TEST(SampleStats, AppendMatchesCombinedStream)
{
    SampleStats a;
    SampleStats b;
    SampleStats combined;
    for (double v : {1.0, 2.0, 2.0}) {
        a.Add(v);
        combined.Add(v);
    }
    // b opens with a's last value: the boundary runs merge.
    for (double v : {2.0, 3.0, 1.0}) {
        b.Add(v);
        combined.Add(v);
    }
    EXPECT_EQ(a.Median(), 2.0);  // a sorted copy must be invalidated
    a.Append(b);
    a.Append(SampleStats{});
    ASSERT_EQ(a.Runs().size(), combined.Runs().size());
    for (size_t i = 0; i < a.Runs().size(); ++i) {
        EXPECT_EQ(a.Runs()[i].value, combined.Runs()[i].value);
        EXPECT_EQ(a.Runs()[i].count, combined.Runs()[i].count);
    }
    EXPECT_EQ(a.Count(), 6u);
    EXPECT_EQ(a.Sum(), combined.Sum());
    EXPECT_EQ(a.Percentile(90), combined.Percentile(90));
    EXPECT_EQ(a.Max(), 3.0);
}

/** Today's formulas over a plain sample vector. */
struct VectorReference
{
    std::vector<double> samples;

    double
    Sum() const
    {
        double total = 0.0;
        for (double s : samples) total += s;
        return total;
    }

    double
    Mean() const
    {
        return samples.empty() ? 0.0
                               : Sum() / static_cast<double>(samples.size());
    }

    double
    Stddev() const
    {
        if (samples.size() < 2) return 0.0;
        double mean = Mean();
        double acc = 0.0;
        for (double s : samples) acc += (s - mean) * (s - mean);
        return std::sqrt(acc / static_cast<double>(samples.size()));
    }

    double
    Min() const
    {
        return samples.empty()
                   ? 0.0
                   : *std::min_element(samples.begin(), samples.end());
    }

    double
    Max() const
    {
        return samples.empty()
                   ? 0.0
                   : *std::max_element(samples.begin(), samples.end());
    }

    double
    Percentile(double p) const
    {
        if (samples.empty()) return 0.0;
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        if (sorted.size() == 1) return sorted[0];
        double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
        size_t lo = static_cast<size_t>(rank);
        size_t hi = std::min(lo + 1, sorted.size() - 1);
        double frac = rank - static_cast<double>(lo);
        return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    }

    double
    FractionAbove(double threshold) const
    {
        if (samples.empty()) return 0.0;
        size_t n = 0;
        for (double s : samples) {
            if (s > threshold) ++n;
        }
        return static_cast<double>(n) / static_cast<double>(samples.size());
    }
};

void
ExpectMatchesReference(const SampleStats& s, const VectorReference& ref,
                       const std::vector<double>& pool)
{
    ASSERT_EQ(s.Count(), ref.samples.size());
    EXPECT_EQ(s.Min(), ref.Min());
    EXPECT_EQ(s.Max(), ref.Max());
    EXPECT_EQ(s.Sum(), ref.Sum());
    EXPECT_EQ(s.Mean(), ref.Mean());
    EXPECT_EQ(s.Stddev(), ref.Stddev());
    for (double p = 0.0; p <= 100.0; p += 2.5) {
        EXPECT_EQ(s.Percentile(p), ref.Percentile(p)) << "p" << p;
    }
    for (double p : {33.3, 50.0, 90.0, 99.0, 99.9}) {
        EXPECT_EQ(s.Percentile(p), ref.Percentile(p)) << "p" << p;
    }
    for (double t : pool) {
        EXPECT_EQ(s.FractionAbove(t), ref.FractionAbove(t));
    }
}

TEST(SampleStats, RandomizedRunsMatchPlainVectorBitForBit)
{
    std::mt19937_64 gen(20251017);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        // A small pool of awkward doubles, so runs repeat and
        // interleave (a, a, b, a, ...) like per-iteration TBT gaps.
        std::uniform_real_distribution<double> value(1e-4, 0.3);
        std::vector<double> pool(1 + gen() % 6);
        for (double& v : pool) v = value(gen);
        SampleStats s;
        VectorReference ref;
        const int runs = static_cast<int>(gen() % 200);
        for (int r = 0; r < runs; ++r) {
            // One in four runs is a fresh value, never repeated.
            double v = gen() % 4 == 0 ? value(gen)
                                      : pool[gen() % pool.size()];
            const int len = 1 + static_cast<int>(gen() % 50);
            for (int i = 0; i < len; ++i) {
                s.Add(v);
                ref.samples.push_back(v);
            }
            // Query mid-stream: order statistics must not disturb the
            // insertion-order moments or miss later samples.
            if (gen() % 16 == 0) {
                EXPECT_EQ(s.Percentile(50), ref.Percentile(50));
                EXPECT_EQ(s.Mean(), ref.Mean());
            }
        }
        EXPECT_LE(s.Runs().size(), static_cast<size_t>(runs));
        ExpectMatchesReference(s, ref, pool);
    }
}

}  // namespace
}  // namespace pod
