/**
 * @file
 * Direct unit tests of the max-min fair water-filling allocator —
 * previously exercised only indirectly through full simulations.
 */
#include "gpusim/water_fill.h"

#include <gtest/gtest.h>
#include <map>
#include <utility>
#include <vector>

#include "gpusim/engine.h"

namespace pod::gpusim {
namespace {

/** Run WaterFill and collect the allocations by unit id. */
std::map<int, double>
Fill(std::vector<std::pair<double, int>> caps, double capacity)
{
    std::map<int, double> rates;
    WaterFill(caps, capacity, [&rates](int uid, double rate) {
        rates[uid] = rate;
    });
    return rates;
}

TEST(WaterFillTest, EmptyDemandsAllocateNothing)
{
    std::map<int, double> rates = Fill({}, 100.0);
    EXPECT_TRUE(rates.empty());
}

TEST(WaterFillTest, ZeroCapDemandsReceiveZero)
{
    // Zero-cap demands sit at the front of the ascending order and
    // must absorb nothing, leaving full capacity to real demands.
    auto rates = Fill({{0.0, 1}, {0.0, 2}, {40.0, 3}}, 100.0);
    EXPECT_EQ(rates[1], 0.0);
    EXPECT_EQ(rates[2], 0.0);
    EXPECT_EQ(rates[3], 40.0);
}

TEST(WaterFillTest, UndersubscribedGivesEveryoneTheirCap)
{
    auto rates = Fill({{10.0, 1}, {20.0, 2}, {30.0, 3}}, 100.0);
    EXPECT_EQ(rates[1], 10.0);
    EXPECT_EQ(rates[2], 20.0);
    EXPECT_EQ(rates[3], 30.0);
}

TEST(WaterFillTest, CapacityExhaustionSplitsFairShare)
{
    // All caps exceed the fair share: everyone is clipped to it.
    auto rates = Fill({{100.0, 1}, {100.0, 2}, {100.0, 3}, {100.0, 4}},
                      100.0);
    for (int uid = 1; uid <= 4; ++uid) {
        EXPECT_DOUBLE_EQ(rates[uid], 25.0);
    }
}

TEST(WaterFillTest, EqualCapsAtExactCapacitySaturate)
{
    // Sum of equal caps == capacity exactly: each gets its cap and
    // the pool is exhausted with nothing left over.
    auto rates = Fill({{25.0, 1}, {25.0, 2}, {25.0, 3}, {25.0, 4}},
                      100.0);
    double total = 0.0;
    for (int uid = 1; uid <= 4; ++uid) {
        EXPECT_DOUBLE_EQ(rates[uid], 25.0);
        total += rates[uid];
    }
    EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(WaterFillTest, SmallDemandSlackRaisesLargerShares)
{
    // Max-min fairness: the 10-cap demand's slack (vs the naive 100/3
    // share) flows to the two big demands, which then split the
    // remainder evenly.
    auto rates = Fill({{10.0, 1}, {500.0, 2}, {500.0, 3}}, 100.0);
    EXPECT_DOUBLE_EQ(rates[1], 10.0);
    EXPECT_DOUBLE_EQ(rates[2], 45.0);
    EXPECT_DOUBLE_EQ(rates[3], 45.0);
}

TEST(WaterFillTest, AllocationsNeverExceedCapOrCapacity)
{
    std::vector<std::pair<double, int>> caps = {
        {3.0, 1}, {7.0, 2}, {11.0, 3}, {13.0, 4}, {29.0, 5}};
    auto rates = Fill(caps, 20.0);
    double total = 0.0;
    for (const auto& [cap, uid] : caps) {
        EXPECT_LE(rates[uid], cap);
        total += rates[uid];
    }
    EXPECT_LE(total, 20.0 + 1e-12);
}

}  // namespace
}  // namespace pod::gpusim
