/**
 * @file
 * Bit-identical regression pin for the cluster event loop.
 *
 * Runs the fixed 48-request trace from tests/golden_scenarios.h over
 * a heterogeneous 3-replica fleet (A100 + H100 + A6000) under two
 * routers and compares fleet metrics against exact golden doubles
 * captured from the pre-refactor engine (PR 3). The O(active) loop
 * refactor must route every request to the same replica at the same
 * instant as the scan-everything loop did.
 *
 * Since PR 8 the exact goldens pin the EngineCore::kExactOracle sim
 * core; the default analytic core is compared against the oracle
 * within tolerance bands (AnalyticMatchesOracleWithinBands below,
 * bands justified inline and in docs/DESIGN.md S3.2).
 *
 * The goldens were re-pinned once when CtasPerSm::kAuto moved from
 * simulating both 2 and 4 CTAs/SM to ChooseCtasPerSm's batch-feature
 * rule (docs/EXPERIMENTS.md "One simulation per memo miss"); routing
 * and every replica's routed requests and tokens did not move.
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>
#include <memory>

#include "../golden_scenarios.h"
#include "cluster/router.h"
#include "serve/scheduler.h"

namespace pod::cluster {
namespace {

ClusterMetricsReport
RunGoldenFleet(const std::string& router,
               gpusim::EngineCore sim_core = gpusim::EngineCore::kExactOracle)
{
    serve::ServingConfig base;
    base.backend = core::Backend::kPod;
    base.attn_options.sim.core = sim_core;
    ClusterConfig config;
    config.replicas.assign(3, base);
    config.replicas[1].gpu = gpusim::GpuSpec::H100Sxm80GB();
    config.replicas[2].gpu = gpusim::GpuSpec::RtxA6000();
    ClusterEngine engine(
        config,
        [](int) { return std::make_unique<serve::SarathiScheduler>(1024); },
        MakeRouter(router));
    return engine.Run(golden::ClusterTrace());
}

TEST(ClusterRegressionTest, LeastKvRunIsBitIdenticalToGolden)
{
    ClusterMetricsReport rep = RunGoldenFleet("least-kv");
    const serve::MetricsReport& m = rep.fleet;

    EXPECT_EQ(m.num_requests, 48);
    EXPECT_EQ(m.iterations, 1396l);
    EXPECT_EQ(m.makespan, 0x1.36fb293d5113ep+3);  // 9.718159312972258
    EXPECT_EQ(m.RequestsPerMinute(), 0x1.285a37fe13759p+8);
    EXPECT_EQ(m.ttft.Percentile(50), 0x1.115f6ffd2e7ep-3);
    EXPECT_EQ(m.ttft.Percentile(99), 0x1.6544655af4e52p-1);
    EXPECT_EQ(m.ttft.Max(), 0x1.655c81a9aa2f8p-1);
    EXPECT_EQ(m.tbt.Percentile(50), 0x1.44a2b7d6bfb8p-7);
    EXPECT_EQ(m.tbt.Percentile(99), 0x1.54ea810a6b5p-4);
    EXPECT_EQ(m.tbt.Max(), 0x1.2adafd41bebcp-3);
    EXPECT_EQ(m.latency.Mean(), 0x1.4db75478a75dcp+0);
    EXPECT_EQ(m.latency.Max(), 0x1.16ef0840fc3fbp+2);
    EXPECT_EQ(m.FracStalled200ms(), 0x0p+0);
    EXPECT_EQ(m.FracStalled500ms(), 0x0p+0);
    EXPECT_EQ(m.MeanBatchTokens(), 0x1.e4f387b3b6a5cp+6);
    EXPECT_EQ(rep.request_imbalance_cv, 0x1.8a85c24f70659p-2);
    EXPECT_EQ(rep.token_imbalance_cv, 0x1.2fb13b5473b24p-1);
    ASSERT_EQ(rep.utilization.size(), 3u);
    ASSERT_EQ(rep.per_replica.size(), 3u);
    EXPECT_EQ(rep.per_replica[0].num_requests, 17);
    EXPECT_EQ(rep.per_replica[0].batch_tokens, 0x1.a85ep+15);
    EXPECT_EQ(rep.utilization[0].kv_peak, 0x1.5990666103bbfp-5);
    EXPECT_EQ(rep.utilization[0].kv_mean, 0x1.48e7eda7b996ep-6);
    EXPECT_EQ(rep.per_replica[1].num_requests, 23);
    EXPECT_EQ(rep.per_replica[1].batch_tokens, 0x1.8068p+16);
    EXPECT_EQ(rep.utilization[1].kv_peak, 0x1.5e9ce636614b9p-5);
    EXPECT_EQ(rep.utilization[1].kv_mean, 0x1.4ff82ecfb7806p-6);
    EXPECT_EQ(rep.per_replica[2].num_requests, 8);
    EXPECT_EQ(rep.per_replica[2].batch_tokens, 0x1.0224p+14);
    EXPECT_EQ(rep.utilization[2].kv_peak, 0x1.3c1f713c1f714p-5);
    EXPECT_EQ(rep.utilization[2].kv_mean, 0x1.ae56be894351ap-6);
}

TEST(ClusterRegressionTest, PrefillAwareRunIsBitIdenticalToGolden)
{
    ClusterMetricsReport rep = RunGoldenFleet("prefill-aware");
    const serve::MetricsReport& m = rep.fleet;

    EXPECT_EQ(m.num_requests, 48);
    EXPECT_EQ(m.iterations, 1368l);
    EXPECT_EQ(m.makespan, 0x1.49fe98a7c9b61p+3);  // 10.312328651152429
    EXPECT_EQ(m.RequestsPerMinute(), 0x1.17470190eaec2p+8);
    EXPECT_EQ(m.ttft.Percentile(50), 0x1.f949ea7ebb17p-4);
    EXPECT_EQ(m.ttft.Percentile(99), 0x1.8f806c5c94c72p+0);
    EXPECT_EQ(m.ttft.Max(), 0x1.c4eded44a4eacp+0);
    EXPECT_EQ(m.tbt.Percentile(50), 0x1.3ce37d5fcf7p-7);
    EXPECT_EQ(m.tbt.Percentile(99), 0x1.2338cad93acep-3);
    EXPECT_EQ(m.tbt.Max(), 0x1.84ed43809304p-3);
    EXPECT_EQ(m.latency.Mean(), 0x1.4f91ace708ffdp+0);
    EXPECT_EQ(m.latency.Max(), 0x1.7401729df5b5p+2);
    EXPECT_EQ(m.FracStalled200ms(), 0x0p+0);
    EXPECT_EQ(m.FracStalled500ms(), 0x0p+0);
    EXPECT_EQ(m.MeanBatchTokens(), 0x1.eee08fb823ee1p+6);
    EXPECT_EQ(rep.request_imbalance_cv, 0x1.2d52500834e58p-1);
    EXPECT_EQ(rep.token_imbalance_cv, 0x1.f55abdbb6dde8p-2);
    ASSERT_EQ(rep.utilization.size(), 3u);
    ASSERT_EQ(rep.per_replica.size(), 3u);
    EXPECT_EQ(rep.per_replica[0].num_requests, 12);
    EXPECT_EQ(rep.per_replica[0].batch_tokens, 0x1.82dap+15);
    EXPECT_EQ(rep.utilization[0].kv_peak, 0x1.8c0d64b6ab583p-5);
    EXPECT_EQ(rep.utilization[0].kv_mean, 0x1.6ba822bc0a89cp-6);
    EXPECT_EQ(rep.per_replica[1].num_requests, 29);
    EXPECT_EQ(rep.per_replica[1].batch_tokens, 0x1.6bebp+16);
    EXPECT_EQ(rep.utilization[1].kv_peak, 0x1.9596c7f45c123p-5);
    EXPECT_EQ(rep.utilization[1].kv_mean, 0x1.3c9803e0adcefp-6);
    EXPECT_EQ(rep.per_replica[2].num_requests, 7);
    EXPECT_EQ(rep.per_replica[2].batch_tokens, 0x1.9f2p+14);
    EXPECT_EQ(rep.utilization[2].kv_peak, 0x1.93a6c593a6c59p-4);
    EXPECT_EQ(rep.utilization[2].kv_mean, 0x1.e4852753e8d06p-6);
}

/**
 * The default analytic sim core against the oracle, at the fleet
 * layer. Routing is driven entirely by discrete replica state
 * (request counts, KV occupancy at admission boundaries), so every
 * request must land on the same replica under both cores; fleet
 * timing aggregates carry a 1e-3 relative band, same argument as the
 * serve-layer AnalyticMatchesOracleWithinBands: per-kernel drift is
 * <= ~2e-4 relative (pinned in tests/gpusim/analytic_oracle_test.cc)
 * and fleet metrics aggregate it without amplification. Extreme
 * order statistics (tbt.Max is a single iteration picked out of
 * ~1400, where per-iteration drift is not averaged away) carry a
 * wider 5e-3 band; measured drift there is ~1.2e-3.
 */
TEST(ClusterRegressionTest, AnalyticMatchesOracleWithinBands)
{
    for (const char* router : {"least-kv", "prefill-aware"}) {
        ClusterMetricsReport a =
            RunGoldenFleet(router, gpusim::EngineCore::kAnalytic);
        ClusterMetricsReport o =
            RunGoldenFleet(router, gpusim::EngineCore::kExactOracle);

        EXPECT_EQ(a.fleet.num_requests, o.fleet.num_requests) << router;
        EXPECT_EQ(a.fleet.iterations, o.fleet.iterations) << router;
        ASSERT_EQ(a.per_replica.size(), o.per_replica.size()) << router;
        long a_tokens = 0, o_tokens = 0;
        for (size_t i = 0; i < a.per_replica.size(); ++i) {
            EXPECT_EQ(a.per_replica[i].num_requests,
                      o.per_replica[i].num_requests)
                << router << " replica " << i;
            a_tokens += static_cast<long>(a.per_replica[i].batch_tokens);
            o_tokens += static_cast<long>(o.per_replica[i].batch_tokens);
        }
        EXPECT_EQ(a_tokens, o_tokens) << router;

        constexpr double kBand = 1e-3;
        EXPECT_NEAR(a.fleet.makespan, o.fleet.makespan,
                    o.fleet.makespan * kBand)
            << router;
        EXPECT_NEAR(a.fleet.ttft.Percentile(99), o.fleet.ttft.Percentile(99),
                    o.fleet.ttft.Percentile(99) * kBand)
            << router;
        constexpr double kMaxBand = 5e-3;  // extreme order statistic
        EXPECT_NEAR(a.fleet.tbt.Max(), o.fleet.tbt.Max(),
                    o.fleet.tbt.Max() * kMaxBand)
            << router;
        EXPECT_NEAR(a.fleet.latency.Mean(), o.fleet.latency.Mean(),
                    o.fleet.latency.Mean() * kBand)
            << router;
    }
}

}  // namespace
}  // namespace pod::cluster
