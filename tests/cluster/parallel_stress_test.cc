/**
 * @file
 * Randomized serial/parallel equivalence stress: ~50 seeded random
 * fleet configurations (replica count, heterogeneous GPU specs,
 * arrival rate, router, watermark on/off, preempt mode, scheduler
 * budget, thread count) each run through the serial oracle and the
 * parallel engine and compared field-by-field, bit-exactly.
 *
 * Every configuration is generated from common/rng.h with a fixed
 * seed, and the full configuration is attached to the assertion
 * scope — a mismatch log line contains everything needed to
 * reproduce the failing case standalone.
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/rng.h"
#include "report_compare.h"
#include "serve/scheduler.h"
#include "serve/trace.h"

namespace pod::cluster {
namespace {

using pod::cluster::test::ExpectReportsEqual;
using pod::cluster::test::ExpectStatesEqual;

constexpr uint64_t kSuiteSeed = 0xC0FFEE2026ull;
constexpr int kNumConfigs = 50;

struct StressConfig
{
    uint64_t cluster_seed = 0;
    int num_replicas = 1;
    std::vector<int> gpu_picks;  // 0=A100, 1=H100, 2=A6000
    std::string router;
    int token_budget = 512;
    bool watermark = false;
    bool swap_mode = false;
    double memory_fraction = 0.9;
    int num_requests = 0;
    double qps = 0.0;  // 0 = offline (all arrivals at t=0)
    int threads = 2;

    std::string
    Describe() const
    {
        std::ostringstream os;
        os << "cluster_seed=" << cluster_seed
           << " replicas=" << num_replicas << " gpus=[";
        for (size_t i = 0; i < gpu_picks.size(); ++i) {
            os << (i ? "," : "") << gpu_picks[i];
        }
        os << "] router=" << router << " token_budget=" << token_budget
           << " watermark=" << watermark << " swap=" << swap_mode
           << " memory_fraction=" << memory_fraction
           << " requests=" << num_requests << " qps=" << qps
           << " threads=" << threads;
        return os.str();
    }
};

StressConfig
DrawConfig(Rng& rng, int index)
{
    StressConfig c;
    c.cluster_seed = static_cast<uint64_t>(
        rng.UniformInt(1, 1ll << 40));
    c.num_replicas = static_cast<int>(rng.UniformInt(1, 4));
    for (int r = 0; r < c.num_replicas; ++r) {
        c.gpu_picks.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    }
    const auto routers = RouterNames();
    c.router = routers[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(routers.size()) - 1))];
    c.token_budget =
        static_cast<int>(256 * rng.UniformInt(1, 4));  // 256..1024
    c.watermark = rng.Bernoulli(0.4);
    if (c.watermark) {
        c.swap_mode = rng.Bernoulli(0.5);
        // Tight pool so the watermark allocator actually preempts.
        // A100s only: smaller presets cannot fit the model weights
        // under a pool this tight (the engine rejects the config).
        c.memory_fraction = rng.UniformReal(0.096, 0.12);
        for (int& pick : c.gpu_picks) pick = 0;
    }
    c.num_requests = static_cast<int>(rng.UniformInt(6, 20));
    c.qps = rng.Bernoulli(0.5) ? rng.UniformReal(1.0, 8.0) : 0.0;
    c.threads = static_cast<int>(rng.UniformInt(2, 5));
    (void)index;
    return c;
}

gpusim::GpuSpec
PickGpu(int pick)
{
    switch (pick) {
        case 1: return gpusim::GpuSpec::H100Sxm80GB();
        case 2: return gpusim::GpuSpec::RtxA6000();
        default: return gpusim::GpuSpec::A100Sxm80GB();
    }
}

ClusterConfig
BuildFleet(const StressConfig& c)
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    base.tensor_parallel = 2;
    // Coarse memo buckets: the stress suite cares about lifecycle
    // equivalence, not cost-model resolution, and warm caches keep
    // 100 cluster runs fast enough for sanitizer jobs.
    base.kv_bucket = 4096;
    base.context_bucket = 4096;
    base.decode_bs_bucket = 32;
    base.chunk_bucket = 256;
    if (c.watermark) {
        base.kv_policy = serve::KvPolicy::kWatermark;
        base.kv_preempt_mode = c.swap_mode
                                   ? serve::PreemptMode::kSwap
                                   : serve::PreemptMode::kRecompute;
        base.memory_fraction = c.memory_fraction;
    }
    ClusterConfig fleet = ClusterConfig::Homogeneous(base,
                                                     c.num_replicas);
    fleet.seed = c.cluster_seed;
    for (int r = 0; r < c.num_replicas; ++r) {
        fleet.replicas[static_cast<size_t>(r)].gpu =
            PickGpu(c.gpu_picks[static_cast<size_t>(r)]);
    }
    return fleet;
}

std::vector<serve::Request>
BuildTrace(const StressConfig& c, Rng& rng)
{
    // Overload-shaped lengths when the pool is tight (so watermark
    // configs really preempt), moderate otherwise; arrivals either
    // offline (all t=0) or Poisson at the drawn rate.
    std::vector<serve::Request> trace;
    double now = 0.0;
    for (int i = 0; i < c.num_requests; ++i) {
        serve::Request r;
        r.id = i;
        if (c.qps > 0.0) now += rng.Exponential(c.qps);
        r.arrival_time = now;
        if (c.watermark) {
            r.prefill_tokens =
                static_cast<int>(rng.UniformInt(256, 640));
            r.decode_tokens =
                static_cast<int>(rng.UniformInt(256, 640));
        } else {
            r.prefill_tokens =
                static_cast<int>(rng.UniformInt(64, 4096));
            r.decode_tokens = static_cast<int>(rng.UniformInt(8, 128));
        }
        trace.push_back(r);
    }
    return trace;
}

SchedulerFactory
Sarathi(int token_budget)
{
    return [token_budget](int) {
        return std::make_unique<serve::SarathiScheduler>(token_budget);
    };
}

TEST(ParallelStressTest, RandomConfigsSerialParallelEquivalent)
{
    Rng rng(kSuiteSeed);
    int preempting_configs = 0;
    for (int i = 0; i < kNumConfigs; ++i) {
        StressConfig c = DrawConfig(rng, i);
        // The trace draws ride the same suite RNG, after the config
        // draws, so config i's inputs are a pure function of
        // (kSuiteSeed, i-prefix) and reproduce from the log.
        std::vector<serve::Request> trace = BuildTrace(c, rng);
        SCOPED_TRACE("config " + std::to_string(i) + ": " +
                     c.Describe());

        ClusterConfig fleet = BuildFleet(c);
        ClusterEngine oracle(fleet, Sarathi(c.token_budget),
                             MakeRouter(c.router), /*num_threads=*/1);
        ClusterMetricsReport expected = oracle.Run(trace);

        ClusterEngine parallel(fleet, Sarathi(c.token_budget),
                               MakeRouter(c.router), c.threads);
        ClusterMetricsReport got = parallel.Run(trace);

        ExpectReportsEqual(expected, got);
        ExpectStatesEqual(oracle, parallel);
        if (expected.preemptions > 0) ++preempting_configs;
        if (HasFatalFailure()) return;
    }
    // The sweep must actually exercise the preemption lifecycle, not
    // just conservative fleets — if trace shaping drifts and no
    // config preempts, this suite has silently lost its hardest
    // coverage.
    EXPECT_GT(preempting_configs, 3);
}

}  // namespace
}  // namespace pod::cluster
