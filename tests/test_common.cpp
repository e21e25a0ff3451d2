/**
 * @file
 * Unit tests for the common substrate: RNG determinism and distribution
 * sanity, statistics counters/histograms, and table formatting.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/table.hpp"

using namespace awb;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.nextU32() == b.nextU32()) ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(9);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 10000; ++i) seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += r.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = r.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (r.nextBool(0.3)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(TableFormat, HumanCount)
{
    EXPECT_EQ(humanCount(999), "999");
    EXPECT_EQ(humanCount(999700), "999.7K");
    EXPECT_EQ(humanCount(62.3e6), "62.3M");
    EXPECT_EQ(humanCount(257e9), "257.0G");
}

TEST(TableFormat, Percent)
{
    EXPECT_EQ(percent(0.634), "63.4%");
    EXPECT_EQ(percent(1.0), "100.0%");
}

TEST(TableRender, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    auto s = t.render();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("| longer"), std::string::npos);
    // Every line has the same width.
    std::size_t first_nl = s.find('\n');
    std::size_t w = first_nl;
    for (std::size_t pos = 0; pos < s.size();) {
        std::size_t nl = s.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        EXPECT_EQ(nl - pos, w);
        pos = nl + 1;
    }
}
