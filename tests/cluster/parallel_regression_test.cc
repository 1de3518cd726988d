/**
 * @file
 * Serial-oracle regression net for parallel deterministic cluster
 * execution (docs/DESIGN.md S8): every golden scenario from
 * tests/golden_scenarios.h, run under every router, at thread counts
 * {1, 2, 4, hardware_concurrency}, must produce a
 * ClusterMetricsReport and per-request completion records that
 * compare *exactly equal* — bit-identical doubles, not approximately
 * — to the single-threaded oracle, plus identical Chrome-trace bytes
 * for the heterogeneous fleet. Two scenarios are also swept at odd
 * and oversubscribed pool widths. Also pins the replica-RNG discipline:
 * streams are derived from (cluster seed, replica index) and
 * reseeded serially, so their state is independent of the thread
 * schedule.
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../golden_scenarios.h"
#include "cluster/router.h"
#include "report_compare.h"
#include "serve/scheduler.h"

namespace pod::cluster {
namespace {

using pod::cluster::test::ExpectReportsEqual;
using pod::cluster::test::ExpectStatesEqual;

/** Thread counts the net sweeps (deduplicated, order-preserving). */
std::vector<int>
ThreadCounts()
{
    int hw = ThreadPool::ResolveThreads(0);
    std::vector<int> counts = {1, 2, 4, hw};
    std::vector<int> unique;
    for (int c : counts) {
        if (std::find(unique.begin(), unique.end(), c) == unique.end()) {
            unique.push_back(c);
        }
    }
    return unique;
}

SchedulerFactory
Sarathi(int token_budget)
{
    return [token_budget](int) {
        return std::make_unique<serve::SarathiScheduler>(token_budget);
    };
}

/** One golden scenario: fleet composition + trace. */
struct Scenario
{
    std::string name;
    ClusterConfig config;
    int token_budget = 512;
    std::vector<serve::Request> trace;
};

/**
 * Coarse memo-cache buckets for every scenario: the net compares
 * serial vs parallel (both sides share the bucketing), so cost-model
 * resolution is irrelevant and warm caches keep the
 * 6-scenario x 5-router x 4-thread-count sweep fast enough for the
 * sanitizer jobs.
 */
void
CoarsenBuckets(serve::ServingConfig& config)
{
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;
    config.chunk_bucket = 256;
}

/** ServeTrace on a homogeneous 2-replica A100 fleet. */
Scenario
ServeTraceFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "serve-trace";
    s.config = ClusterConfig::Homogeneous(base, 2);
    s.trace = golden::ServeTrace();
    return s;
}

/**
 * ClusterTrace on the heterogeneous A100+H100+A6000 POD fleet —
 * the same composition the exact-golden cluster regression pins, so
 * this scenario also transitively anchors parallel runs to the PR 3
 * golden literals.
 */
Scenario
HeterogeneousFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kPod;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "heterogeneous";
    s.config.replicas.assign(3, base);
    s.config.replicas[1].gpu = gpusim::GpuSpec::H100Sxm80GB();
    s.config.replicas[2].gpu = gpusim::GpuSpec::RtxA6000();
    s.token_budget = 1024;
    s.trace = golden::ClusterTrace();
    return s;
}

/**
 * An offline burst on an 8-replica mixed H100/A6000 fleet: every
 * request queued at t = 0, so the whole drain is one advance window
 * with uneven per-replica backlogs — the shape where longest-first
 * dispatch reorders the most work, mirroring bench_cluster_scaling's
 * heterogeneous pin in miniature.
 */
Scenario
OfflineBurstMixedFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "offline-burst-mixed";
    s.config.replicas.assign(8, base);
    for (size_t r = 0; r < s.config.replicas.size(); ++r) {
        s.config.replicas[r].gpu = r % 2 == 0
                                       ? gpusim::GpuSpec::H100Sxm80GB()
                                       : gpusim::GpuSpec::RtxA6000();
    }
    s.token_budget = 1024;
    for (int i = 0; i < 64; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.0;
        r.prefill_tokens = 256 + 613 * (i % 8) + (i % 9 == 0 ? 4000 : 0);
        r.decode_tokens = 8 + 23 * (i % 7);
        s.trace.push_back(r);
    }
    return s;
}

/**
 * OverloadTrace on a memory-tight watermark fleet: the regime where
 * replicas evict and re-admit requests, so the parallel engine must
 * reproduce every lifecycle transition (and, under kSwap, the PCIe
 * transfer time) exactly.
 */
Scenario
WatermarkOverloadFleet(serve::PreemptMode mode)
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    base.tensor_parallel = 2;       // weights must fit the tight pool
    base.memory_fraction = 0.0958;  // few-thousand-token KV pool
    base.kv_policy = serve::KvPolicy::kWatermark;
    base.kv_preempt_mode = mode;
    CoarsenBuckets(base);
    Scenario s;
    s.name = mode == serve::PreemptMode::kSwap ? "overload-swap"
                                               : "overload-recompute";
    s.config = ClusterConfig::Homogeneous(base, 2);
    s.trace = golden::OverloadTrace(16);
    return s;
}

/** A one-replica fleet: the degenerate path where every router is
 * the identity and the pool advances a single replica. */
Scenario
SingleReplicaFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "single-replica";
    s.config = ClusterConfig::Homogeneous(base, 1);
    s.trace = golden::ServeTrace();
    return s;
}

void
RunScenarioSweep(const Scenario& scenario,
                 const std::vector<int>& thread_counts = ThreadCounts())
{
    for (const std::string& router : RouterNames()) {
        SCOPED_TRACE("router " + router);
        ClusterEngine oracle(scenario.config,
                             Sarathi(scenario.token_budget),
                             MakeRouter(router), /*num_threads=*/1);
        ClusterMetricsReport expected = oracle.Run(scenario.trace);

        for (int threads : thread_counts) {
            SCOPED_TRACE(::testing::Message() << "threads " << threads);
            ClusterEngine parallel(scenario.config,
                                   Sarathi(scenario.token_budget),
                                   MakeRouter(router), threads);
            ClusterMetricsReport got = parallel.Run(scenario.trace);
            ExpectReportsEqual(expected, got);
            ExpectStatesEqual(oracle, parallel);
        }
    }
}

TEST(ParallelRegressionTest, ServeTraceBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(ServeTraceFleet());
}

TEST(ParallelRegressionTest,
     HeterogeneousClusterTraceBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(HeterogeneousFleet());
}

TEST(ParallelRegressionTest,
     OfflineBurstMixedFleetBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(OfflineBurstMixedFleet());
}

TEST(ParallelRegressionTest,
     WatermarkSwapOverloadBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(WatermarkOverloadFleet(serve::PreemptMode::kSwap));
}

TEST(ParallelRegressionTest,
     WatermarkRecomputeOverloadBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(
        WatermarkOverloadFleet(serve::PreemptMode::kRecompute));
}

TEST(ParallelRegressionTest,
     SingleReplicaDegeneratePathBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(SingleReplicaFleet());
}

/**
 * Pool widths the main sweep does not reach on small hosts: an odd
 * pool, and one wider than every fleet here, so some workers claim no
 * replica in a round. The suite name and the "modes and slices" wording
 * are kept from the advance-scheduling net these tests continue; pool
 * width is the one scheduling axis the advance dispatch has left.
 */
const std::vector<int> kOddAndOversubscribedThreads = {3, 8};

TEST(StealRegressionTest,
     HeterogeneousFleetBitIdenticalAcrossModesAndSlices)
{
    RunScenarioSweep(HeterogeneousFleet(), kOddAndOversubscribedThreads);
}

TEST(StealRegressionTest,
     WatermarkOverloadBitIdenticalAcrossModesAndSlices)
{
    RunScenarioSweep(WatermarkOverloadFleet(serve::PreemptMode::kSwap),
                     kOddAndOversubscribedThreads);
}

TEST(ParallelRegressionTest, HeterogeneousTraceBytesIdenticalAtFourThreads)
{
    // The sim-time trace must also be schedule-independent: each
    // replica's recorder is written by whichever thread advances it.
    // Compare merged trace bytes against the serial oracle's.
    Scenario s = HeterogeneousFleet();
    ClusterEngine oracle(s.config, Sarathi(s.token_budget),
                         MakeRouter("round-robin"), /*num_threads=*/1);
    oracle.EnableTracing();
    (void)oracle.Run(s.trace);

    ClusterEngine parallel(s.config, Sarathi(s.token_budget),
                           MakeRouter("round-robin"), /*num_threads=*/4);
    parallel.EnableTracing();
    (void)parallel.Run(s.trace);

    std::ostringstream serial_trace;
    std::ostringstream parallel_trace;
    oracle.WriteChromeTrace(serial_trace);
    parallel.WriteChromeTrace(parallel_trace);
    EXPECT_EQ(serial_trace.str(), parallel_trace.str());
}

TEST(ParallelRegressionTest, RepeatedParallelRunsAreIdentical)
{
    // One engine, run twice at an oversubscribed thread count: memo
    // caches are warm on the second run and the thread schedule is
    // certainly different, yet the simulation must not move. (Cache
    // hit/miss splits legitimately differ between a cold and a warm
    // run, so compare the metrics, not the cache gauges.)
    Scenario s = HeterogeneousFleet();
    ClusterEngine engine(s.config, Sarathi(s.token_budget),
                         MakeRouter("least-kv"), /*num_threads=*/4);
    ClusterMetricsReport first = engine.Run(s.trace);
    ClusterMetricsReport second = engine.Run(s.trace);
    pod::cluster::test::ExpectMetricsEqual(first.fleet, second.fleet,
                                           "fleet");
    ASSERT_EQ(first.utilization.size(), second.utilization.size());
    for (size_t r = 0; r < first.utilization.size(); ++r) {
        EXPECT_EQ(first.utilization[r].requests_routed,
                  second.utilization[r].requests_routed);
        EXPECT_EQ(first.utilization[r].busy_time,
                  second.utilization[r].busy_time);
        EXPECT_EQ(first.utilization[r].tokens_processed,
                  second.utilization[r].tokens_processed);
        EXPECT_EQ(first.utilization[r].kv_peak,
                  second.utilization[r].kv_peak);
        EXPECT_EQ(first.utilization[r].kv_mean,
                  second.utilization[r].kv_mean);
    }
    EXPECT_EQ(first.request_imbalance_cv, second.request_imbalance_cv);
    EXPECT_EQ(first.token_imbalance_cv, second.token_imbalance_cv);
}

// ---- replica-RNG audit (docs/DESIGN.md S8) ----

TEST(ParallelRegressionTest, ReplicaRngStreamsAreDistinctPerReplica)
{
    Scenario s = ServeTraceFleet();
    ClusterEngine engine(s.config, Sarathi(512),
                         MakeRouter("round-robin"));
    // SplitMix64-derived seeds: adjacent replicas must not produce
    // the correlated draws a `seed + index` derivation would.
    EXPECT_NE(engine.ReplicaRng(0).UniformInt(0, 1u << 30),
              engine.ReplicaRng(1).UniformInt(0, 1u << 30));
}

TEST(ParallelRegressionTest,
     ReplicaRngReseedingIsIndependentOfThreadSchedule)
{
    // The pin for the RNG-ownership audit: after a Run() at any
    // thread count, every replica stream must sit at exactly the
    // same state — Run() reseeds the streams serially in
    // replica-index order from ClusterConfig::seed, and no code on
    // the worker threads may share or consume another replica's
    // stream. If any thread-schedule-dependent draw creeps in, the
    // post-run draws below diverge.
    Scenario s = HeterogeneousFleet();
    std::vector<std::vector<int64_t>> draws;
    for (int threads : ThreadCounts()) {
        ClusterEngine engine(s.config, Sarathi(s.token_budget),
                             MakeRouter("least-kv"), threads);
        (void)engine.Run(s.trace);
        std::vector<int64_t> per_replica;
        for (int r = 0; r < engine.NumReplicas(); ++r) {
            for (int d = 0; d < 4; ++d) {
                per_replica.push_back(
                    engine.ReplicaRng(r).UniformInt(0, 1ll << 40));
            }
        }
        draws.push_back(std::move(per_replica));
    }
    for (size_t i = 1; i < draws.size(); ++i) {
        EXPECT_EQ(draws[0], draws[i])
            << "replica RNG state diverged at thread count sweep "
            << i;
    }
}

TEST(ParallelRegressionTest, ClusterSeedChangesReplicaStreams)
{
    Scenario s = ServeTraceFleet();
    ClusterConfig reseeded = s.config;
    reseeded.seed = 12345;
    ClusterEngine a(s.config, Sarathi(512), MakeRouter("round-robin"));
    ClusterEngine b(reseeded, Sarathi(512), MakeRouter("round-robin"));
    EXPECT_NE(a.ReplicaRng(0).UniformInt(0, 1ll << 40),
              b.ReplicaRng(0).UniformInt(0, 1ll << 40));
}

}  // namespace
}  // namespace pod::cluster
