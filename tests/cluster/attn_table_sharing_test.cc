/**
 * @file
 * Tests for the fleet-shared attention cost tables (docs/DESIGN.md
 * S5.4): ClusterEngine gives each cost identity one table, a table
 * ends up holding exactly the union of its replicas' memo-cache keys,
 * and sharing leaves every per-replica report and counter equal to a
 * standalone replay with private costs, at every thread count.
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cluster/router.h"
#include "common/thread_pool.h"
#include "report_compare.h"
#include "serve/scheduler.h"

namespace pod::cluster {
namespace {

using pod::cluster::test::ExpectCountersEqual;
using pod::cluster::test::ExpectMetricsEqual;

std::vector<int>
ThreadCounts()
{
    std::vector<int> counts = {1, 2, 4, ThreadPool::ResolveThreads(0)};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    return counts;
}

/** Replica r runs Sarathi with budget 512 + 256 * (r % 2), so fleets
 * mix schedulers without leaving one cost identity. */
SchedulerFactory
MixedSarathi()
{
    return [](int r) {
        return std::make_unique<serve::SarathiScheduler>(512 + 256 * (r % 2));
    };
}

std::vector<serve::Request>
Trace()
{
    std::vector<serve::Request> trace;
    for (int i = 0; i < 32; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.05 * i;
        r.prefill_tokens = 300 + 700 * (i % 4);
        r.decode_tokens = 6 + 9 * (i % 5);
        trace.push_back(r);
    }
    return trace;
}

serve::ServingConfig
PodReplica()
{
    serve::ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kPod;
    config.kv_bucket = 2048;
    config.context_bucket = 2048;
    return config;
}

using SignatureSet =
    std::unordered_set<serve::AttnSignature, serve::AttnSignatureHash>;

/**
 * Group replicas by shared table; every table must hold exactly the
 * union of its replicas' memo-cache keys, and the report's gauge is
 * the sum of table sizes. Returns the number of distinct tables.
 */
size_t
ExpectTablesHoldLocalKeys(const ClusterEngine& fleet,
                          const ClusterMetricsReport& report)
{
    std::map<const serve::AttnCostTable*, SignatureSet> groups;
    for (int r = 0; r < fleet.NumReplicas(); ++r) {
        const serve::ServingEngine& replica = fleet.Replica(r);
        const serve::AttnCostTable* table = replica.SharedAttnCosts();
        EXPECT_NE(table, nullptr) << "replica " << r;
        SignatureSet& keys = groups[table];
        for (const auto& entry : replica.AttnCache()) {
            keys.insert(entry.first);
        }
    }
    long entries = 0;
    for (const auto& [table, keys] : groups) {
        if (table == nullptr) continue;
        EXPECT_EQ(table->Size(), keys.size());
        for (const serve::AttnSignature& key : keys) {
            EXPECT_TRUE(table->Find(key).has_value());
        }
        entries += static_cast<long>(table->Size());
    }
    EXPECT_EQ(report.attn_table_entries, entries);
    return groups.size();
}

/** Each replica's routed requests replayed on a standalone engine
 * (private costs only). */
std::vector<serve::MetricsReport>
StandaloneReplays(const ClusterEngine& fleet,
                  const SchedulerFactory& make_scheduler)
{
    std::vector<serve::MetricsReport> reports;
    for (int r = 0; r < fleet.NumReplicas(); ++r) {
        std::vector<serve::Request> routed;
        for (const serve::RequestState& state : fleet.Replica(r).States()) {
            routed.push_back(state.request);
        }
        serve::ServingEngine solo(fleet.Replica(r).Config(),
                                  make_scheduler(r));
        EXPECT_EQ(solo.SharedAttnCosts(), nullptr);
        reports.push_back(solo.Run(routed));
    }
    return reports;
}

void
ExpectReplicasMatchReplays(const ClusterMetricsReport& report,
                           const std::vector<serve::MetricsReport>& solo)
{
    ASSERT_EQ(report.per_replica.size(), solo.size());
    for (size_t r = 0; r < solo.size(); ++r) {
        SCOPED_TRACE(::testing::Message() << "replica " << r);
        ExpectMetricsEqual(solo[r], report.per_replica[r], "replay");
        ExpectCountersEqual(solo[r], report.per_replica[r], "replay");
    }
}

TEST(AttnTableSharingTest, HomogeneousFleetSimulatesEachSignatureOnce)
{
    const ClusterConfig config = ClusterConfig::Homogeneous(PodReplica(), 4);
    std::vector<serve::MetricsReport> solo;
    for (int threads : ThreadCounts()) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads);
        ClusterEngine fleet(config, MixedSarathi(),
                            MakeRouter("round-robin"), threads);
        const ClusterMetricsReport report = fleet.Run(Trace());
        if (solo.empty()) solo = StandaloneReplays(fleet, MixedSarathi());

        EXPECT_EQ(ExpectTablesHoldLocalKeys(fleet, report), 1u);
        for (int r = 1; r < fleet.NumReplicas(); ++r) {
            EXPECT_EQ(fleet.Replica(r).SharedAttnCosts(),
                      fleet.Replica(0).SharedAttnCosts());
        }
        // Replicas repeat each other's signatures: the fleet simulated
        // fewer signatures than its replicas looked up for the first
        // time.
        EXPECT_GT(report.attn_table_entries, 0);
        EXPECT_LT(report.attn_table_entries, report.attn_cache_misses);
        ExpectReplicasMatchReplays(report, solo);
    }
}

TEST(AttnTableSharingTest, MixedFleetGetsOneTablePerIdentity)
{
    ClusterConfig config;
    config.replicas.assign(5, PodReplica());
    config.replicas[1].gpu = gpusim::GpuSpec::H100Sxm80GB();
    config.replicas[3].attn_options.pod.policy =
        core::SchedPolicy::kFiftyFifty;
    config.replicas[4].gpu = gpusim::GpuSpec::H100Sxm80GB();
    // Outside the cost identity: replica 4 still shares with 1.
    config.replicas[4].kv_bucket = 4096;
    config.replicas[4].kv_policy = serve::KvPolicy::kWatermark;

    std::vector<serve::MetricsReport> solo;
    for (int threads : ThreadCounts()) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads);
        ClusterEngine fleet(config, MixedSarathi(),
                            MakeRouter("round-robin"), threads);
        const ClusterMetricsReport report = fleet.Run(Trace());
        if (solo.empty()) solo = StandaloneReplays(fleet, MixedSarathi());

        EXPECT_EQ(ExpectTablesHoldLocalKeys(fleet, report), 3u);
        const auto table = [&](int r) {
            return fleet.Replica(r).SharedAttnCosts();
        };
        EXPECT_EQ(table(0), table(2));
        EXPECT_EQ(table(1), table(4));
        EXPECT_NE(table(0), table(1));
        EXPECT_NE(table(3), table(0));
        EXPECT_NE(table(3), table(1));
        ExpectReplicasMatchReplays(report, solo);
    }
}

TEST(AttnTableSharingTest, GaugeIsPublishedAndSurvivesRepeatedRuns)
{
    ClusterEngine fleet(ClusterConfig::Homogeneous(PodReplica(), 2),
                        MixedSarathi(), MakeRouter("round-robin"));
    const ClusterMetricsReport first = fleet.Run(Trace());
    ASSERT_GT(first.attn_table_entries, 0);

    telemetry::MetricRegistry registry;
    FillRegistry(first, registry);
    bool found = false;
    for (const telemetry::MetricRegistry::Row& row : registry.Rows()) {
        if (row.name != "cluster.attn_table.entries") continue;
        found = true;
        EXPECT_EQ(row.kind, telemetry::MetricKind::kGauge);
        EXPECT_EQ(row.gauge, static_cast<double>(first.attn_table_entries));
    }
    EXPECT_TRUE(found);

    // Tables, like the local caches, survive runs: a repeat simulates
    // nothing new, and the gauge reads the same size.
    const ClusterMetricsReport second = fleet.Run(Trace());
    EXPECT_EQ(second.attn_cache_misses, 0);
    EXPECT_EQ(second.attn_table_entries, first.attn_table_entries);
}

}  // namespace
}  // namespace pod::cluster
