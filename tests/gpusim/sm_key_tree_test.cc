/**
 * @file
 * SmKeyTree (the analytic core's per-SM event index) against a
 * brute-force reference: the minimum (key, sm) pair over a plain key
 * array, and full drains in sorted (key, sm) order. Keys are drawn from
 * a small set so ties are common, and include the "no event" key.
 */
#include "gpusim/sm_key_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace pod::gpusim::detail {
namespace {

constexpr double kNone = SmKeyTree::kNone;

/** Lowest (key, sm) over the reference keys; {kNone, -1} if empty. */
std::pair<double, int>
ReferenceMin(const std::vector<double>& keys)
{
    std::pair<double, int> best{kNone, -1};
    for (int sm = 0; sm < static_cast<int>(keys.size()); ++sm) {
        if (keys[static_cast<size_t>(sm)] < best.first) {
            best = {keys[static_cast<size_t>(sm)], sm};
        }
    }
    return best;
}

/** A key from a small pool (ties likely), sometimes kNone. */
double
DrawKey(Rng& rng)
{
    static const double kPool[] = {0.0, 0.5, 1.0, 1.0, 2.5, kNone};
    if (rng.Bernoulli(0.25)) return rng.UniformReal(0.0, 3.0);
    return kPool[rng.UniformInt(0, 5)];
}

TEST(SmKeyTreeTest, EmptyTreeHasNoEvent)
{
    for (int n : {1, 3, 108}) {
        SmKeyTree tree(n);
        EXPECT_EQ(tree.MinKey(), kNone);
    }
}

TEST(SmKeyTreeTest, TiesResolveToLowestSm)
{
    SmKeyTree tree(132);
    tree.Set(77, 1.0);
    tree.Set(5, 1.0);
    tree.Set(131, 1.0);
    EXPECT_EQ(tree.MinKey(), 1.0);
    EXPECT_EQ(tree.MinSm(), 5);
    tree.Set(5, kNone);
    EXPECT_EQ(tree.MinSm(), 77);
    // Re-keying down beats the tie; re-keying up falls back.
    tree.Set(131, 0.5);
    EXPECT_EQ(tree.MinSm(), 131);
    tree.Set(131, 2.0);
    EXPECT_EQ(tree.MinSm(), 77);
    tree.Set(77, kNone);
    EXPECT_EQ(tree.MinSm(), 131);
    EXPECT_EQ(tree.MinKey(), 2.0);
}

TEST(SmKeyTreeTest, RandomRekeysMatchReference)
{
    for (int n : {1, 2, 7, 8, 64, 65, 108, 132}) {
        SCOPED_TRACE("num_sms=" + std::to_string(n));
        Rng rng(static_cast<uint64_t>(n) * 31 + 7);
        SmKeyTree tree(n);
        std::vector<double> keys(static_cast<size_t>(n), kNone);
        for (int step = 0; step < 4000; ++step) {
            int sm = static_cast<int>(rng.UniformInt(0, n - 1));
            double key = DrawKey(rng);
            tree.Set(sm, key);
            keys[static_cast<size_t>(sm)] = key;
            auto [ref_key, ref_sm] = ReferenceMin(keys);
            ASSERT_EQ(tree.MinKey(), ref_key) << "step " << step;
            if (ref_key < kNone) {
                ASSERT_EQ(tree.MinSm(), ref_sm) << "step " << step;
            }
        }
    }
}

TEST(SmKeyTreeTest, DrainFollowsSortedKeySmOrder)
{
    // The event loop's access pattern: read the root, clear that SM,
    // repeat. The visit order must be the sorted (key, sm) order.
    for (int n : {1, 8, 108, 132}) {
        SCOPED_TRACE("num_sms=" + std::to_string(n));
        Rng rng(static_cast<uint64_t>(n) + 99);
        for (int round = 0; round < 20; ++round) {
            SmKeyTree tree(n);
            std::vector<std::pair<double, int>> expected;
            for (int sm = 0; sm < n; ++sm) {
                // Set twice: only the second key may count.
                tree.Set(sm, DrawKey(rng));
                double key = DrawKey(rng);
                tree.Set(sm, key);
                if (key < kNone) expected.emplace_back(key, sm);
            }
            std::sort(expected.begin(), expected.end());
            std::vector<std::pair<double, int>> drained;
            while (tree.MinKey() < kNone) {
                drained.emplace_back(tree.MinKey(), tree.MinSm());
                tree.Set(tree.MinSm(), kNone);
            }
            ASSERT_EQ(drained, expected) << "round " << round;
        }
    }
}

}  // namespace
}  // namespace pod::gpusim::detail
