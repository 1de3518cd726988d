/**
 * @file
 * Tests for the cluster serving layer: the discrete-event loop over
 * replica engines, fleet metrics, heterogeneous fleets, and the
 * single-replica equivalence guarantee.
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "serve/trace.h"

namespace pod::cluster {
namespace {

serve::ServingConfig
BaseConfig()
{
    serve::ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kFaSerial;
    return config;
}

SchedulerFactory
SarathiFactory(int token_budget)
{
    return [token_budget](int) {
        return std::make_unique<serve::SarathiScheduler>(token_budget);
    };
}

TEST(ClusterEngineTest, SingleReplicaBitIdenticalToServingEngine)
{
    // A one-replica cluster is just a ServingEngine with routing
    // overhead; its metrics must match Run() bit-for-bit.
    Rng rng(77);
    auto trace =
        serve::GenerateTrace(serve::WorkloadSpec::Internal(), 8, 0.4, rng);

    serve::ServingEngine solo(
        BaseConfig(), std::make_unique<serve::SarathiScheduler>(512));
    serve::MetricsReport solo_report = solo.Run(trace);

    ClusterEngine cluster(ClusterConfig::Homogeneous(BaseConfig(), 1),
                          SarathiFactory(512),
                          std::make_unique<RoundRobinRouter>());
    ClusterMetricsReport report = cluster.Run(trace);

    EXPECT_EQ(report.fleet.makespan, solo_report.makespan);
    EXPECT_EQ(report.fleet.iterations, solo_report.iterations);
    EXPECT_EQ(report.fleet.ttft.Sum(), solo_report.ttft.Sum());
    EXPECT_EQ(report.fleet.tbt.Sum(), solo_report.tbt.Sum());
    EXPECT_EQ(report.fleet.latency.Sum(), solo_report.latency.Sum());
    EXPECT_EQ(report.request_imbalance_cv, 0.0);
}

TEST(ClusterEngineTest, AllRequestsFinishAcrossReplicas)
{
    Rng rng(5);
    auto trace =
        serve::GenerateTrace(serve::WorkloadSpec::Arxiv(), 12, 1.0, rng);
    ClusterEngine cluster(ClusterConfig::Homogeneous(BaseConfig(), 3),
                          SarathiFactory(512),
                          std::make_unique<LeastOutstandingRouter>());
    ClusterMetricsReport report = cluster.Run(trace);

    EXPECT_EQ(report.num_replicas, 3);
    EXPECT_EQ(report.fleet.num_requests, 12);
    EXPECT_EQ(report.fleet.ttft.Count(), 12u);
    int per_replica_sum = 0;
    int routed_sum = 0;
    for (int r = 0; r < 3; ++r) {
        per_replica_sum += report.per_replica[static_cast<size_t>(r)]
                               .num_requests;
        routed_sum +=
            report.utilization[static_cast<size_t>(r)].requests_routed;
    }
    EXPECT_EQ(per_replica_sum, 12);
    EXPECT_EQ(routed_sum, 12);
    EXPECT_TRUE(std::isfinite(report.request_imbalance_cv));
    EXPECT_TRUE(std::isfinite(report.token_imbalance_cv));
}

TEST(ClusterEngineTest, ThroughputScalesWithReplicas)
{
    auto trace = serve::UniformTrace(8, 8192, 64);
    ClusterEngine one(ClusterConfig::Homogeneous(BaseConfig(), 1),
                      SarathiFactory(1024),
                      std::make_unique<RoundRobinRouter>());
    ClusterEngine two(ClusterConfig::Homogeneous(BaseConfig(), 2),
                      SarathiFactory(1024),
                      std::make_unique<RoundRobinRouter>());
    ClusterMetricsReport r1 = one.Run(trace);
    ClusterMetricsReport r2 = two.Run(trace);
    EXPECT_GT(r2.fleet.requests_per_minute,
              r1.fleet.requests_per_minute * 1.5);
}

TEST(ClusterEngineTest, RoundRobinBalancesUniformLoadPerfectly)
{
    auto trace = serve::UniformTrace(8, 4096, 32);
    ClusterEngine cluster(ClusterConfig::Homogeneous(BaseConfig(), 2),
                          SarathiFactory(1024),
                          std::make_unique<RoundRobinRouter>());
    ClusterMetricsReport report = cluster.Run(trace);
    EXPECT_EQ(report.utilization[0].requests_routed, 4);
    EXPECT_EQ(report.utilization[1].requests_routed, 4);
    EXPECT_EQ(report.request_imbalance_cv, 0.0);
    // Identical requests on identical replicas: token load even too.
    EXPECT_NEAR(report.token_imbalance_cv, 0.0, 1e-12);
}

TEST(ClusterEngineTest, KvUtilizationSampled)
{
    auto trace = serve::UniformTrace(6, 8192, 64);
    ClusterEngine cluster(ClusterConfig::Homogeneous(BaseConfig(), 2),
                          SarathiFactory(1024),
                          std::make_unique<LeastKvPressureRouter>());
    ClusterMetricsReport report = cluster.Run(trace);
    for (const auto& u : report.utilization) {
        EXPECT_GT(u.kv_peak, 0.0);
        EXPECT_GT(u.kv_mean, 0.0);
        EXPECT_LE(u.kv_mean, u.kv_peak);
        EXPECT_GT(u.busy_time, 0.0);
        EXPECT_GT(u.tokens_processed, 0.0);
    }
}

TEST(ClusterEngineTest, HeterogeneousFleetFasterGpuDoesMoreWork)
{
    // A100 + H100 fleet under least-outstanding routing: the H100
    // drains its queue faster, so it ends up serving more requests.
    ClusterConfig config;
    config.replicas.push_back(BaseConfig());
    serve::ServingConfig h100 = BaseConfig();
    h100.gpu = gpusim::GpuSpec::H100Sxm80GB();
    config.replicas.push_back(h100);

    ClusterEngine cluster(config, SarathiFactory(512),
                          std::make_unique<LeastOutstandingRouter>());
    // Staggered arrivals: later routing decisions see queue depths,
    // which reflect how fast each GPU drains.
    auto trace = serve::UniformTrace(12, 8192, 128);
    for (size_t i = 0; i < trace.size(); ++i) {
        trace[i].arrival_time = static_cast<double>(i) * 0.25;
    }
    ClusterMetricsReport report = cluster.Run(trace);

    EXPECT_EQ(report.fleet.num_requests, 12);
    EXPECT_GT(report.utilization[1].requests_routed,
              report.utilization[0].requests_routed);
    // Per-replica mean latency reflects the hardware gap.
    EXPECT_LT(report.per_replica[1].latency.Mean(),
              report.per_replica[0].latency.Mean());
}

TEST(ClusterEngineTest, FleetMetricsAggregatePerReplicaReports)
{
    auto trace = serve::UniformTrace(6, 4096, 32);
    ClusterEngine cluster(ClusterConfig::Homogeneous(BaseConfig(), 3),
                          SarathiFactory(1024),
                          std::make_unique<RoundRobinRouter>());
    ClusterMetricsReport report = cluster.Run(trace);
    long iteration_sum = 0;
    size_t ttft_sum = 0;
    for (const auto& replica : report.per_replica) {
        iteration_sum += replica.iterations;
        ttft_sum += replica.ttft.Count();
    }
    EXPECT_EQ(report.fleet.iterations, iteration_sum);
    EXPECT_EQ(report.fleet.ttft.Count(), ttft_sum);
    // Fleet makespan is the max, not the sum, of replica makespans.
    double max_replica_makespan = 0.0;
    for (const auto& replica : report.per_replica) {
        max_replica_makespan =
            std::max(max_replica_makespan, replica.makespan);
    }
    EXPECT_EQ(report.fleet.makespan, max_replica_makespan);
}

TEST(ClusterEngineTest, RepeatedRunsBitIdentical)
{
    // Run() must reset replica AND router state: a stale round-robin
    // cursor would shift every assignment of the second run.
    Rng rng(9);
    auto trace =
        serve::GenerateTrace(serve::WorkloadSpec::Internal(), 7, 0.5, rng);
    ClusterEngine cluster(ClusterConfig::Homogeneous(BaseConfig(), 3),
                          SarathiFactory(512),
                          std::make_unique<RoundRobinRouter>());
    ClusterMetricsReport first = cluster.Run(trace);
    ClusterMetricsReport second = cluster.Run(trace);
    EXPECT_EQ(first.fleet.makespan, second.fleet.makespan);
    EXPECT_EQ(first.fleet.ttft.Sum(), second.fleet.ttft.Sum());
    for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(first.utilization[static_cast<size_t>(r)]
                      .requests_routed,
                  second.utilization[static_cast<size_t>(r)]
                      .requests_routed);
    }
}

TEST(ClusterEngineTest, WatermarkFleetSurfacesPreemptionCounters)
{
    // An overloaded 2-replica watermark fleet must preempt, drain,
    // and roll the lifecycle counters up into ClusterMetricsReport
    // (fleet + per-replica), satisfying the end-to-end acceptance
    // path for the preemption redesign.
    serve::ServingConfig config = BaseConfig();
    config.memory_fraction = 0.0958;  // few-thousand-token KV pool
    config.kv_policy = serve::KvPolicy::kWatermark;
    config.kv_preempt_mode = serve::PreemptMode::kSwap;
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;

    std::vector<serve::Request> trace;
    for (int i = 0; i < 20; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.05 * i;
        r.prefill_tokens = 384 + 128 * (i % 3);
        r.decode_tokens = 384 + 96 * (i % 4);
        trace.push_back(r);
    }

    ClusterEngine cluster(ClusterConfig::Homogeneous(config, 2),
                          SarathiFactory(512),
                          std::make_unique<PreemptionAwareRouter>());
    ClusterMetricsReport report = cluster.Run(trace);

    EXPECT_EQ(report.fleet.num_requests, 20);
    EXPECT_EQ(report.fleet.latency.Count(), 20u);
    EXPECT_GT(report.preemptions, 0l);
    EXPECT_EQ(report.preemptions_swap, report.preemptions);
    EXPECT_EQ(report.preemptions_recompute, 0l);
    EXPECT_GT(report.swap_time_total, 0.0);
    // Fleet MetricsReport mirrors the rollup.
    EXPECT_EQ(report.fleet.preemptions, report.preemptions);
    EXPECT_EQ(report.fleet.preemptions_swap, report.preemptions_swap);
    EXPECT_EQ(report.fleet.swap_time_total, report.swap_time_total);
    // Per-replica reports sum to the fleet counters.
    long per_replica_preemptions = 0;
    for (const auto& replica : report.per_replica) {
        per_replica_preemptions += replica.preemptions;
    }
    EXPECT_EQ(per_replica_preemptions, report.preemptions);
}

/** Sarathi scheduler that logs its replica index on every Next(). */
class LoggingScheduler : public serve::Scheduler
{
  public:
    LoggingScheduler(int replica, std::vector<int>* log)
        : replica_(replica), log_(log)
    {
    }

    using serve::Scheduler::Next;
    serve::SchedulingDecision
    Next(double now, std::vector<serve::RequestState>& requests,
         serve::KvAllocator& kv, size_t active_begin,
         size_t& admitted_end) override
    {
        log_->push_back(replica_);
        return inner_.Next(now, requests, kv, active_begin,
                           admitted_end);
    }

    std::string Name() const override { return inner_.Name(); }

  private:
    int replica_;
    std::vector<int>* log_;
    serve::SarathiScheduler inner_{512};
};

TEST(ClusterEngineTest, AdvanceDispatchIsLongestFirst)
{
    // An offline trace queues everything at t = 0, so the whole drain
    // is one advance round. Round-robin hands replica r requests r and
    // r + 4; their prompt lengths give unequal backlogs
    // (replica 1 > replicas 2 = 3 > replica 0). The dispatch must run
    // the biggest backlog first, ties in replica order — even on one
    // thread, where the pool runs its list inline.
    constexpr int kPrefill[] = {256, 4096, 1024, 1024};
    std::vector<serve::Request> trace;
    for (int i = 0; i < 8; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.0;
        r.prefill_tokens = kPrefill[i % 4];
        r.decode_tokens = 16;
        trace.push_back(r);
    }
    std::vector<int> log;
    ClusterEngine cluster(
        ClusterConfig::Homogeneous(BaseConfig(), 4),
        [&log](int replica) {
            return std::make_unique<LoggingScheduler>(replica, &log);
        },
        std::make_unique<RoundRobinRouter>(), /*num_threads=*/1);
    ClusterMetricsReport report = cluster.Run(trace);
    ASSERT_EQ(report.fleet.num_requests, 8);

    std::vector<int> first_next;
    for (int replica : log) {
        if (std::find(first_next.begin(), first_next.end(), replica) ==
            first_next.end()) {
            first_next.push_back(replica);
        }
    }
    EXPECT_EQ(first_next, (std::vector<int>{1, 2, 3, 0}));
}

TEST(ClusterEngineDeathTest, EmptyFleetIsFatal)
{
    EXPECT_EXIT(ClusterConfig::Homogeneous(BaseConfig(), 0),
                ::testing::ExitedWithCode(1), "FATAL");
}

}  // namespace
}  // namespace pod::cluster
