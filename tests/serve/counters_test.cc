/**
 * @file
 * Tests for the engine counter schema (serve/counters.h): every
 * listed counter is summed by operator+= and published by
 * FillCounters under its listed name and kind, so a counter added to
 * the list cannot be left out of the cluster rollup or the registry.
 */
#include "serve/counters.h"

#include <gtest/gtest.h>
#include <map>
#include <string>

namespace pod::serve {
namespace {

using telemetry::MetricKind;
using telemetry::MetricRegistry;

/** Field i of the list (1-based) holds i * scale. */
EngineCounters
Distinct(long scale)
{
    EngineCounters counters;
    long i = 0;
#define POD_SET_COUNTER(type, field, name, kind)                             \
    counters.field = static_cast<type>(++i * scale);
    POD_ENGINE_COUNTERS(POD_SET_COUNTER)
#undef POD_SET_COUNTER
    return counters;
}

TEST(EngineCountersTest, EveryFieldIsListed)
{
    // A field declared in the struct outside the list would be
    // neither summed nor published; every listed type is 8 bytes.
    size_t fields = 0;
#define POD_COUNT_COUNTER(type, field, name, kind)                           \
    ++fields;                                                                \
    static_assert(sizeof(type) == sizeof(long));
    POD_ENGINE_COUNTERS(POD_COUNT_COUNTER)
#undef POD_COUNT_COUNTER
    EXPECT_EQ(sizeof(EngineCounters), fields * sizeof(long));
}

TEST(EngineCountersTest, PlusEqualsSumsEveryField)
{
    EngineCounters sum = Distinct(1);
    sum += Distinct(100);
    long i = 0;
#define POD_EXPECT_SUM(type, field, name, kind)                              \
    ++i;                                                                     \
    EXPECT_EQ(sum.field, static_cast<type>(i * 101)) << #field;
    POD_ENGINE_COUNTERS(POD_EXPECT_SUM)
#undef POD_EXPECT_SUM
}

TEST(EngineCountersTest, FillCountersPublishesOneRowPerField)
{
    const EngineCounters counters = Distinct(1);
    MetricRegistry registry;
    FillCounters(counters, registry, "p.");

    std::map<std::string, MetricRegistry::Row> rows;
    for (const MetricRegistry::Row& row : registry.Rows()) {
        rows[row.name] = row;
    }
    size_t fields = 0;
#define POD_EXPECT_ROW(type, field, name, row_kind)                          \
    {                                                                        \
        ++fields;                                                            \
        SCOPED_TRACE(#field);                                                \
        auto it = rows.find(std::string("p.") + name);                       \
        ASSERT_NE(it, rows.end());                                           \
        EXPECT_EQ(it->second.kind, MetricKind::row_kind);                    \
        if (MetricKind::row_kind == MetricKind::kCounter) {                  \
            EXPECT_EQ(it->second.counter, static_cast<long>(counters.field)); \
        } else {                                                             \
            EXPECT_EQ(it->second.gauge, static_cast<double>(counters.field)); \
        }                                                                    \
    }
    POD_ENGINE_COUNTERS(POD_EXPECT_ROW)
#undef POD_EXPECT_ROW

    // Exactly one row per field (distinct names), plus the two
    // derived hit-rate gauges.
    EXPECT_EQ(registry.Size(), fields + 2);
    ASSERT_EQ(rows.count("p.attn_cache.hit_rate"), 1u);
    EXPECT_EQ(rows["p.attn_cache.hit_rate"].kind, MetricKind::kGauge);
    EXPECT_EQ(rows["p.attn_cache.hit_rate"].gauge,
              counters.AttnCacheHitRate());
    ASSERT_EQ(rows.count("p.kv_prefix.hit_rate"), 1u);
    EXPECT_EQ(rows["p.kv_prefix.hit_rate"].kind, MetricKind::kGauge);
    EXPECT_EQ(rows["p.kv_prefix.hit_rate"].gauge, counters.PrefixHitRate());
}

TEST(EngineCountersTest, HitRatesDivideHitsByLookups)
{
    EngineCounters counters;
    counters.attn_cache_hits = 3;
    counters.attn_cache_misses = 1;
    counters.prefix_hits = 1;
    counters.prefix_misses = 4;
    EXPECT_EQ(counters.AttnCacheHitRate(), 0.75);
    EXPECT_EQ(counters.PrefixHitRate(), 0.2);
}

}  // namespace
}  // namespace pod::serve
