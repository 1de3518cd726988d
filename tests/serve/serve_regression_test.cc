/**
 * @file
 * Bit-identical regression pin for the serving engine.
 *
 * Runs the fixed 32-request trace from tests/golden_scenarios.h under
 * both schedulers and compares the MetricsReport against exact golden
 * doubles captured from the pre-refactor engine (PR 3). The
 * incremental-accounting refactor (running counters, finished-prefix
 * index) must not change a single scheduling or timing decision.
 *
 * The KvAllocator redesign (PR 5) routes these runs through the
 * conservative KV policy — the default — which must reproduce the
 * same goldens: the lifecycle API is behaviour-preserving until the
 * watermark policy is opted into.
 * ConservativePolicyIsDefaultAndGolden pins that explicitly.
 *
 * Since PR 8 the exact goldens pin the EngineCore::kExactOracle sim
 * core; the default analytic core is compared against the oracle run
 * within tolerance bands (AnalyticMatchesOracleWithinBands, bands
 * justified inline and in docs/DESIGN.md S3.2).
 *
 * The Sarathi+POD goldens were re-pinned once when CtasPerSm::kAuto
 * moved from simulating both 2 and 4 CTAs/SM to ChooseCtasPerSm's
 * batch-feature rule (docs/EXPERIMENTS.md "One simulation per memo
 * miss"); the vLLM/FA_Serial golden did not move.
 */
#include "serve/engine.h"

#include <gtest/gtest.h>
#include <memory>

#include "../golden_scenarios.h"
#include "serve/scheduler.h"

namespace pod::serve {
namespace {

TEST(ServeRegressionTest, SarathiPodRunIsBitIdenticalToGolden)
{
    ServingConfig config;
    config.backend = core::Backend::kPod;
    config.attn_options.sim.core = gpusim::EngineCore::kExactOracle;
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    MetricsReport m = engine.Run(golden::ServeTrace());

    EXPECT_EQ(m.num_requests, 32);
    EXPECT_EQ(m.iterations, 469l);
    EXPECT_EQ(m.makespan, 0x1.b540ae8d2ce79p+3);  // 13.664145732625217
    EXPECT_EQ(m.RequestsPerMinute(), 0x1.190706cfb2408p+7);
    EXPECT_EQ(m.ttft.Percentile(50), 0x1.c23405184a8p+0);
    EXPECT_EQ(m.ttft.Percentile(99), 0x1.e85653df2df3p+1);
    EXPECT_EQ(m.ttft.Max(), 0x1.ef2c995e421d8p+1);
    EXPECT_EQ(m.tbt.Percentile(50), 0x1.3ebbff95388p-5);
    EXPECT_EQ(m.tbt.Percentile(99), 0x1.b8cb296ddd7p-5);
    EXPECT_EQ(m.tbt.Max(), 0x1.c6d866c51f28p-5);
    EXPECT_EQ(m.latency.Mean(), 0x1.58086b0f7caa5p+2);
    EXPECT_EQ(m.latency.Max(), 0x1.2c0cc76d5bf74p+3);
    EXPECT_EQ(m.FracStalled200ms(), 0x0p+0);
    EXPECT_EQ(m.FracStalled500ms(), 0x0p+0);
    EXPECT_EQ(m.MeanBatchTokens(), 0x1.3c8f02baad93fp+8);
    EXPECT_EQ(engine.TotalBatchTokens(), 0x1.21f9p+17);  // 148466
    EXPECT_EQ(engine.AttnCacheSize(), 114u);
}

TEST(ServeRegressionTest, LatencyMeanSurvivesPercentileQueries)
{
    // Moments sum in insertion order whatever order statistics were
    // queried first: the golden mean must read the same after a
    // percentile as before it.
    ServingConfig config;
    config.backend = core::Backend::kPod;
    config.attn_options.sim.core = gpusim::EngineCore::kExactOracle;
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    MetricsReport m = engine.Run(golden::ServeTrace());

    EXPECT_EQ(m.latency.Mean(), 0x1.58086b0f7caa5p+2);
    EXPECT_GT(m.latency.Percentile(50), 0.0);
    EXPECT_EQ(m.latency.Mean(), 0x1.58086b0f7caa5p+2);
    const double tbt_mean = m.tbt.Mean();
    EXPECT_GT(m.tbt.Percentile(99), 0.0);
    EXPECT_EQ(m.tbt.Mean(), tbt_mean);
}

TEST(ServeRegressionTest, VllmFaSerialRunIsBitIdenticalToGolden)
{
    ServingConfig config;
    config.backend = core::Backend::kFaSerial;
    config.attn_options.sim.core = gpusim::EngineCore::kExactOracle;
    ServingEngine engine(config, std::make_unique<VllmScheduler>());
    MetricsReport m = engine.Run(golden::ServeTrace());

    EXPECT_EQ(m.num_requests, 32);
    EXPECT_EQ(m.iterations, 224l);
    EXPECT_EQ(m.makespan, 0x1.d280c7aa72c56p+3);  // 14.578220208079227
    EXPECT_EQ(m.RequestsPerMinute(), 0x1.0768198c97f6dp+7);
    EXPECT_EQ(m.ttft.Percentile(50), 0x1.e544ee0a97a18p+0);
    EXPECT_EQ(m.ttft.Percentile(99), 0x1.b86384f9f9c26p+1);
    EXPECT_EQ(m.ttft.Max(), 0x1.bbaace838ca18p+1);
    EXPECT_EQ(m.tbt.Percentile(50), 0x1.2f64642db64p-6);
    EXPECT_EQ(m.tbt.Percentile(99), 0x1.6282a563df4p-6);
    EXPECT_EQ(m.tbt.Max(), 0x1.4799a353d6ccdp+3);
    EXPECT_EQ(m.latency.Mean(), 0x1.2190e1748d47cp+3);
    EXPECT_EQ(m.latency.Max(), 0x1.a680c7aa72c56p+3);
    EXPECT_EQ(m.FracStalled200ms(), 0x1.ep-1);  // 0.9375
    EXPECT_EQ(m.FracStalled500ms(), 0x1.ep-1);
    EXPECT_EQ(m.MeanBatchTokens(), 0x1.4b65b6db6db6ep+9);
}

TEST(ServeRegressionTest, ConservativePolicyIsDefaultAndGolden)
{
    // The default config must select the conservative allocator...
    ServingConfig config;
    EXPECT_EQ(config.kv_policy, KvPolicy::kConservative);

    // ...and an explicitly-conservative run must reproduce the PR-3
    // goldens with zero lifecycle activity: same makespan and
    // iteration count as SarathiPodRunIsBitIdenticalToGolden.
    config.backend = core::Backend::kPod;
    config.kv_policy = KvPolicy::kConservative;
    config.attn_options.sim.core = gpusim::EngineCore::kExactOracle;
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    MetricsReport m = engine.Run(golden::ServeTrace());

    EXPECT_EQ(m.iterations, 469l);
    EXPECT_EQ(m.makespan, 0x1.b540ae8d2ce79p+3);  // 13.664145732625217
    EXPECT_EQ(m.ttft.Percentile(99), 0x1.e85653df2df3p+1);
    EXPECT_EQ(m.tbt.Max(), 0x1.c6d866c51f28p-5);
    EXPECT_EQ(m.preemptions, 0l);
    EXPECT_EQ(m.preemptions_recompute, 0l);
    EXPECT_EQ(m.preemptions_swap, 0l);
    EXPECT_EQ(m.requests_preempted, 0);
    EXPECT_EQ(m.swap_time_total, 0.0);
    EXPECT_EQ(engine.Allocator().policy(), KvPolicy::kConservative);
    EXPECT_EQ(engine.Allocator().Cache(), nullptr);
}

/**
 * The default analytic sim core against the oracle, at the serving
 * layer. Discrete serving behaviour (iteration count, scheduling,
 * stall fractions, attention-cache shape) must be identical: the two
 * cores share every discrete decision, and per-iteration time
 * differences far below the scheduler's decision thresholds must not
 * flip a scheduling step on this trace. Continuous timing metrics
 * carry tolerance bands:
 *
 *  - Band 1e-3 relative on makespan/latency/TTFT/TBT means and
 *    medians. The analytic core freezes paced units in oversubscribed
 *    SM dimensions between per-SM recomputes (docs/DESIGN.md S3.2),
 *    which perturbs a single attention-kernel time by <= ~2e-4
 *    relative on serving-shaped (dense-event) kernels; serving
 *    metrics are sums/quantiles of hundreds of such iteration times
 *    plus exactly-equal queueing delays, so the relative error does
 *    not grow. Measured drift on
 *    this trace is <= ~2e-4 on means/medians; the band carries ~5x
 *    headroom.
 *  - Band 5e-3 relative on Max() latency fields: the max is a single
 *    order statistic, so per-iteration drift does not average out
 *    and one boundary-crossing iteration moves it wholesale
 *    (measured ~1e-3 on ttft.Max here; the cluster suite uses the
 *    same wider band for tbt.Max).
 */
TEST(ServeRegressionTest, AnalyticMatchesOracleWithinBands)
{
    auto run = [](gpusim::EngineCore sim_core) {
        ServingConfig config;
        config.backend = core::Backend::kPod;
        config.attn_options.sim.core = sim_core;
        ServingEngine engine(config,
                             std::make_unique<SarathiScheduler>(512));
        return engine.Run(golden::ServeTrace());
    };
    MetricsReport a = run(gpusim::EngineCore::kAnalytic);
    MetricsReport o = run(gpusim::EngineCore::kExactOracle);

    EXPECT_EQ(a.num_requests, o.num_requests);
    EXPECT_EQ(a.iterations, o.iterations);

    // Sim-core counter plumbing: the analytic replica must run purely
    // heap-driven; the oracle replica must report only oracle events.
    EXPECT_GT(a.sim_fastpath_events, 0);
    EXPECT_EQ(a.sim_fallback_events, 0);
    EXPECT_EQ(o.sim_fastpath_events, 0);
    EXPECT_GT(o.sim_fallback_events, 0);
    EXPECT_EQ(a.FracStalled200ms(), o.FracStalled200ms());
    EXPECT_EQ(a.FracStalled500ms(), o.FracStalled500ms());
    EXPECT_EQ(a.MeanBatchTokens(), o.MeanBatchTokens());

    constexpr double kBand = 1e-3;
    constexpr double kMaxBand = 5e-3;  // Max(): single order statistic
    EXPECT_NEAR(a.makespan, o.makespan, o.makespan * kBand);
    EXPECT_NEAR(a.RequestsPerMinute(), o.RequestsPerMinute(),
                o.RequestsPerMinute() * kBand);
    EXPECT_NEAR(a.ttft.Percentile(50), o.ttft.Percentile(50),
                o.ttft.Percentile(50) * kBand);
    EXPECT_NEAR(a.ttft.Max(), o.ttft.Max(), o.ttft.Max() * kMaxBand);
    EXPECT_NEAR(a.tbt.Percentile(50), o.tbt.Percentile(50),
                o.tbt.Percentile(50) * kBand);
    EXPECT_NEAR(a.tbt.Max(), o.tbt.Max(), o.tbt.Max() * kMaxBand);
    EXPECT_NEAR(a.latency.Mean(), o.latency.Mean(),
                o.latency.Mean() * kBand);
    EXPECT_NEAR(a.latency.Max(), o.latency.Max(),
                o.latency.Max() * kMaxBand);
}

}  // namespace
}  // namespace pod::serve
