/**
 * @file
 * Tests for the fleet-level engine-counter rollup: per-replica
 * memo-cache and sim-core counters surfaced in ClusterMetricsReport
 * and their fleet-wide sums (docs/DESIGN.md S5.4 observability).
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>
#include <memory>

#include "cluster/router.h"
#include "serve/scheduler.h"

namespace pod::cluster {
namespace {

std::vector<serve::Request>
SmallTrace()
{
    std::vector<serve::Request> trace;
    for (int i = 0; i < 20; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.2 * i;
        r.prefill_tokens = 600 + 500 * (i % 4);
        r.decode_tokens = 10 + 15 * (i % 3);
        trace.push_back(r);
    }
    return trace;
}

TEST(ClusterCacheRollupTest, FleetCountersSumPerReplicaCounters)
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    base.kv_bucket = 4096;
    base.context_bucket = 4096;
    base.decode_bs_bucket = 32;

    ClusterEngine engine(
        ClusterConfig::Homogeneous(base, 2),
        [](int) { return std::make_unique<serve::SarathiScheduler>(1024); },
        MakeRouter("round-robin"));
    ClusterMetricsReport report = engine.Run(SmallTrace());

    ASSERT_EQ(report.per_replica.size(), 2u);
    long entries = 0;
    long hits = 0;
    long misses = 0;
    for (int r = 0; r < 2; ++r) {
        const serve::MetricsReport& m =
            report.per_replica[static_cast<size_t>(r)];
        // Each replica simulated work, so its cache saw lookups, and
        // every miss created exactly one entry.
        EXPECT_GT(m.attn_cache_misses, 0);
        EXPECT_EQ(m.attn_cache_entries, m.attn_cache_misses);
        EXPECT_EQ(m.attn_cache_entries,
                  static_cast<long>(engine.Replica(r).AttnCacheSize()));
        entries += m.attn_cache_entries;
        hits += m.attn_cache_hits;
        misses += m.attn_cache_misses;
    }
    EXPECT_EQ(report.attn_cache_entries, entries);
    EXPECT_EQ(report.attn_cache_hits, hits);
    EXPECT_EQ(report.attn_cache_misses, misses);
    EXPECT_GT(report.AttnCacheHitRate(), 0.0);
    EXPECT_LT(report.AttnCacheHitRate(), 1.0);

    // The engine exposes the same since-Reset counters the report
    // copied.
    serve::EngineCounters counters = engine.Replica(0).Counters();
    EXPECT_EQ(counters.attn_cache_hits,
              report.per_replica[0].attn_cache_hits);
    EXPECT_EQ(counters.attn_cache_misses,
              report.per_replica[0].attn_cache_misses);

    // A second run of the same engine reports only its own lookups:
    // the memo caches are warm, so this identical trace misses
    // nothing, and the rollup must not double-count run one.
    ClusterMetricsReport second = engine.Run(SmallTrace());
    EXPECT_EQ(second.attn_cache_misses, 0);
    // Identical trace, warm cache: run two performs the same lookup
    // sequence, so its hits equal run one's total lookups.
    EXPECT_EQ(second.attn_cache_hits,
              report.attn_cache_hits + report.attn_cache_misses);
    EXPECT_EQ(second.attn_cache_entries, report.attn_cache_entries);
    EXPECT_EQ(second.AttnCacheHitRate(), 1.0);

    // Every per-replica counter of run two covers run two alone: with
    // no misses there were no simulations, and the replicas sum to
    // the cluster and fleet rollups field by field (the per-replica
    // sim-core events once carried run one's over).
    serve::EngineCounters sum;
    for (const serve::MetricsReport& m : second.per_replica) {
        EXPECT_EQ(m.sim_fastpath_events, 0);
        EXPECT_EQ(m.sim_fallback_events, 0);
        sum += m;
    }
#define EXPECT_ROLLUP(type, field, name, kind)                              \
    EXPECT_EQ(sum.field, second.field) << #field;                           \
    EXPECT_EQ(sum.field, second.fleet.field) << #field;
    POD_ENGINE_COUNTERS(EXPECT_ROLLUP)
#undef EXPECT_ROLLUP
}

TEST(ClusterCacheRollupTest, HitRateIsZeroWithoutLookups)
{
    serve::EngineCounters u;
    EXPECT_EQ(u.AttnCacheHitRate(), 0.0);
    ClusterMetricsReport r;
    EXPECT_EQ(r.AttnCacheHitRate(), 0.0);
}

}  // namespace
}  // namespace pod::cluster
