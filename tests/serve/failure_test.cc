/**
 * @file
 * Failure-injection tests for the serving layer (docs/DESIGN.md S7):
 * oversized requests, exhausted KV pools, degenerate traces and
 * head-of-line blocking under memory pressure.
 */
#include <gtest/gtest.h>

#include <memory>

#include "serve/engine.h"
#include "serve/kv_allocator.h"
#include "serve/scheduler.h"
#include "serve/trace.h"

namespace pod::serve {
namespace {

ServingConfig
TinyKvConfig()
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kFaSerial;
    return config;
}

TEST(FailureInjection, RequestLargerThanPoolIsFatal)
{
    // A single request whose prompt + output exceeds the entire KV
    // pool can never be admitted; the scheduler must fail loudly
    // instead of spinning forever.
    KvAllocator kv(KvPolicy::kConservative, 4, 16);  // 64 tokens total
    std::vector<RequestState> states(1);
    states[0].request = Request{0, 0.0, 1000, 10, {}, -1, 0};
    SarathiScheduler sched(512);
    EXPECT_EXIT(sched.Next(0.0, states, kv, 0),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(FailureInjection, OversizedRequestFatalUnderWatermarkToo)
{
    // The watermark policy admits on prompt blocks only, but a
    // request whose worst-case context cannot coexist with the
    // watermark would deadlock the decode-growth path — equally
    // fatal.
    KvAllocator kv(KvPolicy::kWatermark, 4, 16, 0.25, PreemptMode::kRecompute);
    std::vector<RequestState> states(1);
    states[0].request = Request{0, 0.0, 40, 20, {}, -1, 0};  // 60 tok + 1 wm block
    SarathiScheduler sched(512);
    EXPECT_EXIT(sched.Next(0.0, states, kv, 0),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(FailureInjection, HeadOfLineBlockingUnderMemoryPressure)
{
    // FCFS admission: a huge request at the head blocks a small one
    // behind it even though the small one would fit (the conservative
    // KV policy, documented in serve/kv_allocator.h).
    KvAllocator kv(KvPolicy::kConservative, 100, 16);  // 1600 tokens
    // Resident tenant holding 20 blocks.
    RequestState tenant;
    tenant.request = Request{99, 0.0, 310, 10, {}, -1, 0};  // 320 tokens
    ASSERT_TRUE(kv.TryAdmit(tenant));
    std::vector<RequestState> states(2);
    states[0].request = Request{0, 0.0, 1300, 100, {}, -1, 0};  // needs 1400 > free
    states[1].request = Request{1, 0.0, 100, 10, {}, -1, 0};    // would fit
    SarathiScheduler sched(512);
    SchedulingDecision decision = sched.Next(0.0, states, kv, 0);
    EXPECT_FALSE(states[0].Admitted());
    EXPECT_FALSE(states[1].Admitted());
    EXPECT_TRUE(decision.batch.Empty());
    EXPECT_TRUE(decision.admissions.empty());
}

TEST(FailureInjection, PoolDrainsAndRecovers)
{
    // Two requests that cannot be co-resident serialize through the
    // pool; the engine still completes both.
    ServingConfig config = TinyKvConfig();
    // Shrink usable memory so the KV pool only holds ~one request.
    config.memory_fraction = 0.0958;
    long capacity = config.KvTokenCapacity();
    ASSERT_GT(capacity, 2100);
    ASSERT_LT(capacity, 4200);

    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(UniformTrace(2, 2048, 32));
    EXPECT_EQ(report.num_requests, 2);
    EXPECT_EQ(report.latency.Count(), 2u);
    // The second request waited for the first to release its blocks.
    EXPECT_GT(report.latency.Max(), report.latency.Min() * 1.5);
}

TEST(FailureInjection, SingleTokenOutputs)
{
    // decode_tokens == 1: the first (and only) token comes from the
    // prefill-completing iteration; no TBT samples exist.
    ServingConfig config = TinyKvConfig();
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(UniformTrace(3, 1024, 1));
    EXPECT_EQ(report.num_requests, 3);
    EXPECT_EQ(report.tbt.Count(), 0u);
    EXPECT_EQ(report.ttft.Count(), 3u);
}

TEST(FailureInjection, BurstArrivalThenSilence)
{
    // All requests arrive in one burst long after t=0; the engine
    // must jump the clock instead of spinning.
    ServingConfig config = TinyKvConfig();
    std::vector<Request> trace = UniformTrace(3, 1024, 8);
    for (auto& r : trace) r.arrival_time = 1000.0;
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(trace);
    EXPECT_GT(report.makespan, 1000.0);
    EXPECT_LT(report.makespan, 1010.0);
    // Latency metrics are relative to arrival, not absolute time.
    EXPECT_LT(report.latency.Max(), 10.0);
}

}  // namespace
}  // namespace pod::serve
