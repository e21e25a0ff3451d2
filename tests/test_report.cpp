/**
 * @file
 * Tests for the per-PE heat strip (`utilizationHeatmap`, the Fig. 10
 * utilization report that `awbsim run social-autotune` prints).
 */

#include <gtest/gtest.h>

#include "common/table.hpp"

using namespace awb;

TEST(Heatmap, BalancedLoadIsUniformMidRamp)
{
    std::vector<Count> even(32, 100);
    auto s = utilizationHeatmap(even, 32);
    ASSERT_EQ(s.size(), 34u);  // brackets + 32 cells
    char first = s[1];
    for (std::size_t i = 1; i + 1 < s.size(); ++i) EXPECT_EQ(s[i], first);
    // 1.0x mean sits mid-ramp, neither idle nor saturated.
    EXPECT_NE(first, ' ');
    EXPECT_NE(first, '@');
}

TEST(Heatmap, HotspotSaturates)
{
    std::vector<Count> load(16, 10);
    load[7] = 1000;
    auto s = utilizationHeatmap(load, 16);
    EXPECT_EQ(s[8], '@');   // the hotspot cell (offset by '[')
    EXPECT_NE(s[1], '@');
}

TEST(Heatmap, IdlePesRenderBlank)
{
    std::vector<Count> load = {0, 0, 100, 100};
    auto s = utilizationHeatmap(load, 4);
    EXPECT_EQ(s[1], ' ');
    EXPECT_EQ(s[2], ' ');
}

TEST(Heatmap, BucketsDownLongArrays)
{
    std::vector<Count> load(1024, 5);
    auto s = utilizationHeatmap(load, 64);
    EXPECT_EQ(s.size(), 66u);
}

TEST(Heatmap, EmptyInput)
{
    EXPECT_EQ(utilizationHeatmap({}), "");
}
