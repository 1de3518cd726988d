/**
 * @file
 * Unit tests for the serving substrate: KV accounting, traces,
 * schedulers and the engine's end-to-end behaviour (vLLM stalls vs
 * Sarathi stall-freedom, POD's improvement).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/attention.h"
#include "model/iteration_cost.h"
#include "serve/engine.h"
#include "serve/kv_allocator.h"
#include "serve/scheduler.h"
#include "serve/trace.h"

namespace pod::serve {
namespace {

// BlockKvManager unit tests live in tests/serve/kv_manager_test.cc;
// allocator-policy tests in tests/serve/preemption_test.cc.

TEST(TraceTest, UniformTrace)
{
    auto trace = UniformTrace(5, 1000, 100);
    ASSERT_EQ(trace.size(), 5u);
    for (const auto& r : trace) {
        EXPECT_EQ(r.prefill_tokens, 1000);
        EXPECT_EQ(r.decode_tokens, 100);
        EXPECT_DOUBLE_EQ(r.arrival_time, 0.0);
    }
}

TEST(TraceTest, PdRatioTrace)
{
    auto trace = PdRatioTrace(3, 16500, 10.0);
    for (const auto& r : trace) {
        EXPECT_NEAR(static_cast<double>(r.prefill_tokens) /
                        r.decode_tokens,
                    10.0, 0.5);
        EXPECT_NEAR(r.prefill_tokens + r.decode_tokens, 16500, 2);
    }
}

TEST(TraceTest, GeneratedStatisticsMatchSpec)
{
    Rng rng(7);
    WorkloadSpec spec = WorkloadSpec::Internal();
    auto trace = GenerateTrace(spec, 4000, 1.0, rng);
    double prefill_sum = 0.0;
    double decode_sum = 0.0;
    double prev_arrival = -1.0;
    for (const auto& r : trace) {
        prefill_sum += r.prefill_tokens;
        decode_sum += r.decode_tokens;
        EXPECT_GE(r.arrival_time, prev_arrival);
        prev_arrival = r.arrival_time;
        EXPECT_GE(r.prefill_tokens, spec.prefill_min);
        EXPECT_LE(r.prefill_tokens, spec.prefill_max);
    }
    // Clamping biases the means slightly; generous tolerances.
    EXPECT_NEAR(prefill_sum / 4000.0, spec.prefill_mean,
                spec.prefill_mean * 0.12);
    EXPECT_NEAR(decode_sum / 4000.0, spec.decode_mean,
                spec.decode_mean * 0.15);
    // Poisson at 1 QPS: ~4000 s span.
    EXPECT_NEAR(trace.back().arrival_time, 4000.0, 400.0);
}

TEST(TraceTest, SameSeedReproducesIdenticalTrace)
{
    // The cluster benches compare routers on "the same" trace; that
    // only means something if generation is bit-deterministic.
    WorkloadSpec spec = WorkloadSpec::Internal();
    Rng rng_a(42);
    Rng rng_b(42);
    auto trace_a = GenerateTrace(spec, 500, 2.0, rng_a);
    auto trace_b = GenerateTrace(spec, 500, 2.0, rng_b);
    ASSERT_EQ(trace_a.size(), trace_b.size());
    for (size_t i = 0; i < trace_a.size(); ++i) {
        EXPECT_EQ(trace_a[i].id, trace_b[i].id);
        EXPECT_EQ(trace_a[i].arrival_time, trace_b[i].arrival_time);
        EXPECT_EQ(trace_a[i].prefill_tokens, trace_b[i].prefill_tokens);
        EXPECT_EQ(trace_a[i].decode_tokens, trace_b[i].decode_tokens);
    }
}

TEST(TraceTest, DifferentSeedsChangeArrivals)
{
    WorkloadSpec spec = WorkloadSpec::Internal();
    Rng rng_a(42);
    Rng rng_b(43);
    auto trace_a = GenerateTrace(spec, 200, 2.0, rng_a);
    auto trace_b = GenerateTrace(spec, 200, 2.0, rng_b);
    int differing_arrivals = 0;
    for (size_t i = 0; i < trace_a.size(); ++i) {
        if (trace_a[i].arrival_time != trace_b[i].arrival_time) {
            ++differing_arrivals;
        }
    }
    // Poisson gaps from distinct streams: essentially all differ.
    EXPECT_GT(differing_arrivals, 150);
}

TEST(TraceTest, ArxivHasMoreDecodes)
{
    Rng rng(8);
    auto internal =
        GenerateTrace(WorkloadSpec::Internal(), 2000, 0.0, rng);
    auto arxiv = GenerateTrace(WorkloadSpec::Arxiv(), 2000, 0.0, rng);
    double internal_decode = 0.0;
    double arxiv_decode = 0.0;
    for (const auto& r : internal) internal_decode += r.decode_tokens;
    for (const auto& r : arxiv) arxiv_decode += r.decode_tokens;
    // Paper: arXiv has ~42% more decode tokens per request.
    EXPECT_GT(arxiv_decode / internal_decode, 1.2);
}

// ---- scheduler unit tests ----

std::vector<RequestState>
MakeStates(const std::vector<Request>& requests)
{
    std::vector<RequestState> states(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        states[i].request = requests[i];
    }
    return states;
}

TEST(VllmSchedulerTest, PrefillPriorityPausesDecodes)
{
    ConservativeKvAllocator kv(100000, 16);
    auto states = MakeStates(UniformTrace(2, 1000, 10));
    VllmScheduler sched;

    // First iteration: both prompts prefill together (whole prompts).
    SchedulingDecision d1 = sched.Next(0.0, states, kv, 0);
    EXPECT_EQ(d1.admissions.size(), 2u);
    ASSERT_EQ(d1.batch.prefills.size(), 2u);
    EXPECT_EQ(d1.batch.prefills[0].chunk_len, 1000);
    EXPECT_TRUE(d1.batch.decodes.empty());
    states[0].prefilled = 1000;
    states[0].decoded = 1;
    states[1].prefilled = 1000;
    states[1].decoded = 1;

    // Now decodes run...
    ScheduledBatch b2 = sched.Next(1.0, states, kv, 0).batch;
    EXPECT_TRUE(b2.prefills.empty());
    EXPECT_EQ(b2.decodes.size(), 2u);

    // ...until a new request arrives: prefill preempts decodes.
    states.push_back(RequestState{});
    states.back().request = Request{2, 0.5, 800, 10, {}, -1, 0};
    ScheduledBatch b3 = sched.Next(2.0, states, kv, 0).batch;
    ASSERT_EQ(b3.prefills.size(), 1u);
    EXPECT_EQ(b3.prefills[0].chunk_len, 800);
    EXPECT_TRUE(b3.decodes.empty());  // the generation stall
}

TEST(SarathiSchedulerTest, BudgetSharedBetweenDecodesAndChunk)
{
    ConservativeKvAllocator kv(100000, 16);
    auto states = MakeStates(UniformTrace(3, 2000, 50));
    // Requests 1,2 already decoding; request 0 waiting to prefill.
    states[1].prefilled = 2000;
    states[1].decoded = 1;
    states[2].prefilled = 2000;
    states[2].decoded = 5;
    SarathiScheduler sched(512);

    ScheduledBatch batch = sched.Next(0.0, states, kv, 0).batch;
    EXPECT_EQ(batch.decodes.size(), 2u);
    ASSERT_EQ(batch.prefills.size(), 1u);
    // Chunk fills the remaining budget: 512 - 2 decodes.
    EXPECT_EQ(batch.prefills[0].chunk_len, 510);
    EXPECT_EQ(batch.TotalTokens(), 512);
}

TEST(SarathiSchedulerTest, MultipleChunksFillBudget)
{
    ConservativeKvAllocator kv(100000, 16);
    auto states = MakeStates(UniformTrace(3, 300, 10));
    SarathiScheduler sched(1024);
    ScheduledBatch batch = sched.Next(0.0, states, kv, 0).batch;
    // 300+300+300 = 900 <= 1024: all three prompts chunk in.
    EXPECT_EQ(batch.prefills.size(), 3u);
    EXPECT_EQ(batch.TotalTokens(), 900);
}

TEST(SarathiSchedulerTest, AdmissionBlocksOnKv)
{
    // Pool fits only the first request (prompt+decode reservation).
    ConservativeKvAllocator kv(70, 16);  // 1120 tokens
    auto states = MakeStates(UniformTrace(2, 1000, 100));
    SarathiScheduler sched(512);
    SchedulingDecision decision = sched.Next(0.0, states, kv, 0);
    EXPECT_TRUE(states[0].Admitted());
    EXPECT_FALSE(states[1].Admitted());
    ASSERT_EQ(decision.admissions.size(), 1u);
    ASSERT_EQ(decision.batch.prefills.size(), 1u);
    EXPECT_EQ(decision.batch.prefills[0].req_index, 0);
}

TEST(SchedulerTest, FutureArrivalsInvisible)
{
    ConservativeKvAllocator kv(100000, 16);
    std::vector<Request> reqs = UniformTrace(1, 100, 10);
    reqs[0].arrival_time = 50.0;
    auto states = MakeStates(reqs);
    SarathiScheduler sched(512);
    EXPECT_TRUE(sched.Next(0.0, states, kv, 0).batch.Empty());
    EXPECT_FALSE(sched.Next(50.0, states, kv, 0).batch.Empty());
}

// ---- engine end-to-end tests ----

ServingConfig
SmallConfig(core::Backend backend)
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = backend;
    return config;
}

TEST(ServingEngineTest, CompletesAllRequests)
{
    ServingEngine engine(SmallConfig(core::Backend::kFaSerial),
                         std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(UniformTrace(4, 4096, 64));
    EXPECT_EQ(report.num_requests, 4);
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_GT(report.iterations, 0);
    EXPECT_EQ(report.ttft.Count(), 4u);
    EXPECT_EQ(report.latency.Count(), 4u);
    // 4 requests x 63 post-first tokens of TBT samples.
    EXPECT_EQ(report.tbt.Count(), 4u * 63u);
    EXPECT_GT(report.requests_per_minute, 0.0);
}

TEST(ServingEngineTest, TokenConservation)
{
    ServingEngine engine(SmallConfig(core::Backend::kFaSerial),
                         std::make_unique<SarathiScheduler>(256));
    auto trace = UniformTrace(3, 2000, 32);
    MetricsReport report = engine.Run(trace);
    double expected_tokens = 3.0 * (2000.0 + 32.0 - 1.0);
    EXPECT_NEAR(report.mean_batch_tokens * report.iterations,
                expected_tokens, 1.0);
}

TEST(ServingEngineTest, VllmStallsSarathiDoesNot)
{
    Rng rng(11);
    auto trace = GenerateTrace(WorkloadSpec::Internal(), 12, 0.3, rng);

    ServingEngine vllm(SmallConfig(core::Backend::kFaSerial),
                       std::make_unique<VllmScheduler>());
    MetricsReport vllm_report = vllm.Run(trace);

    ServingEngine sarathi(SmallConfig(core::Backend::kFaSerial),
                          std::make_unique<SarathiScheduler>(1024));
    MetricsReport sarathi_report = sarathi.Run(trace);

    // vLLM: most requests see a stall; Sarathi: almost none
    // (paper S5.3.2).
    EXPECT_GT(vllm_report.frac_stalled_200ms, 0.5);
    EXPECT_LT(sarathi_report.frac_stalled_200ms, 0.2);
    // vLLM achieves lower median TTFT.
    EXPECT_LT(vllm_report.ttft.Median(), sarathi_report.ttft.Median());
    // Sarathi's worst-case TBT is far below vLLM's multi-second
    // generation stalls.
    EXPECT_LT(sarathi_report.tbt.Max(), vllm_report.tbt.Max() * 0.5);
}

TEST(ServingEngineTest, PodImprovesSarathi)
{
    auto trace = UniformTrace(8, 16384, 128);
    ServingEngine sarathi(SmallConfig(core::Backend::kFaSerial),
                          std::make_unique<SarathiScheduler>(1024));
    MetricsReport base = sarathi.Run(trace);
    ServingEngine pod(SmallConfig(core::Backend::kPod),
                      std::make_unique<SarathiScheduler>(1024));
    MetricsReport boosted = pod.Run(trace);
    EXPECT_GT(boosted.requests_per_minute, base.requests_per_minute);
    EXPECT_LE(boosted.tbt.Percentile(99), base.tbt.Percentile(99) * 1.05);
}

TEST(ServingEngineTest, AttnCacheReused)
{
    ServingEngine engine(SmallConfig(core::Backend::kFaSerial),
                         std::make_unique<SarathiScheduler>(512));
    engine.Run(UniformTrace(6, 4096, 128));
    // Far fewer cache entries than iterations.
    EXPECT_LT(engine.AttnCacheSize(), 400u);
    EXPECT_GT(engine.AttnCacheSize(), 0u);
}

TEST(ServingEngineTest, AttnCacheKeyKeepsChunkAndDecodeCountApart)
{
    // At equal kv and context, (chunk 128, 4 decodes) and (chunk 64,
    // 8 decodes) once packed to the same key (chunk << 40 overlapped
    // decode_bs << 44), so the second lookup returned the first's
    // time. Each signature must get its own entry.
    ServingEngine engine(SmallConfig(core::Backend::kPod),
                         std::make_unique<SarathiScheduler>(512));
    double a = engine.CachedAttnLayerTime(128, 1024, 4, 1024);
    double b = engine.CachedAttnLayerTime(64, 1024, 8, 1024);
    EXPECT_EQ(engine.AttnCacheSize(), 2u);
    EXPECT_EQ(engine.AttnCacheMisses(), 2);
    EXPECT_NE(a, b);

    // Repeats hit their own entries.
    EXPECT_EQ(engine.CachedAttnLayerTime(128, 1024, 4, 1024), a);
    EXPECT_EQ(engine.CachedAttnLayerTime(64, 1024, 8, 1024), b);
    EXPECT_EQ(engine.AttnCacheHits(), 2);
    EXPECT_EQ(engine.AttnCacheSize(), 2u);
}

/** The kernel simulation the memo stands in for: one layer of
 * attention over the batch a bucketed signature describes. */
double
SimulatedLayerTime(const ServingConfig& config, const AttnSignature& key)
{
    kernels::HybridBatch batch;
    batch.shape = config.model.ShapePerGpu(config.tensor_parallel);
    if (key.chunk > 0) {
        batch.prefills.push_back(
            kernels::PrefillItem{key.chunk, std::max(key.kv, key.chunk)});
    }
    if (key.decode_bs > 0) {
        batch.decode = kernels::DecodeItem::Uniform(key.decode_bs, key.context);
    }
    return core::RunAttention(config.backend, batch, config.gpu,
                              config.attn_options)
        .total_time;
}

TEST(ServingEngineTest, AttnCacheDisabledIsBitIdenticalAndEmpty)
{
    // The memo has no off-switch. A run without it would simulate
    // every bucketed signature (bucketing happens before the lookup),
    // so a run with it is bit-identical to one without exactly when
    // each entry is the kernel simulation of its key. A fresh engine
    // starts with an empty memo.
    const ServingConfig config = SmallConfig(core::Backend::kPod);
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    EXPECT_EQ(engine.AttnCacheSize(), 0u);
    EXPECT_EQ(engine.AttnCacheHits(), 0);
    EXPECT_EQ(engine.AttnCacheMisses(), 0);

    engine.Run(UniformTrace(6, 4096, 96));
    ASSERT_GT(engine.AttnCacheHits(), 0);
    ASSERT_GT(engine.AttnCacheSize(), 0u);
    // Without a shared table every miss is one simulation and one entry.
    EXPECT_EQ(static_cast<long>(engine.AttnCacheSize()),
              engine.AttnCacheMisses());
    for (const auto& [key, layer_time] : engine.AttnCache()) {
        EXPECT_EQ(layer_time, SimulatedLayerTime(config, key));
    }
}

TEST(ServingEngineTest, StepChargesTheIterationCostModelTotal)
{
    // Unit buckets make the memo signature the exact batch, so the
    // engine and the cost model behind Fig. 4 must price this
    // prompt-only iteration identically: one composition
    // (model::ComposeIteration) serves both.
    ServingConfig config = SmallConfig(core::Backend::kPod);
    config.chunk_bucket = 1;
    config.kv_bucket = 1;
    config.decode_bs_bucket = 1;
    config.context_bucket = 1;
    ServingEngine engine(config, std::make_unique<SarathiScheduler>(512));
    engine.Submit(Request{0, 0.0, 300, 4, {}, -1, 0});
    const StepResult step = engine.Step();
    ASSERT_EQ(step.batch_tokens, 300);

    model::IterationCostModel cost(config.model, config.gpu,
                                   config.tensor_parallel, config.backend,
                                   config.attn_options);
    kernels::HybridBatch batch;
    batch.shape = config.model.ShapePerGpu(config.tensor_parallel);
    batch.prefills.push_back(kernels::PrefillItem{300, 300});
    // The prompt completes, so one row needs logits.
    EXPECT_DOUBLE_EQ(step.duration, cost.Cost(batch, 1).total);
}

TEST(ServingEngineTest, StepLoopBitIdenticalToRun)
{
    // The Step() extraction must not perturb Run(): driving an
    // identical engine iteration-by-iteration over a fixed-seed trace
    // reproduces Run()'s metrics bit-for-bit.
    Rng rng(123);
    auto trace = GenerateTrace(WorkloadSpec::Internal(), 10, 0.5, rng);

    ServingEngine run_engine(SmallConfig(core::Backend::kFaSerial),
                             std::make_unique<SarathiScheduler>(512));
    MetricsReport run_report = run_engine.Run(trace);

    ServingEngine step_engine(SmallConfig(core::Backend::kFaSerial),
                              std::make_unique<SarathiScheduler>(512));
    auto sorted = trace;
    std::sort(sorted.begin(), sorted.end(), ArrivalOrder);
    step_engine.Reset();
    for (const auto& request : sorted) step_engine.Submit(request);
    while (!step_engine.Done()) step_engine.Step();
    MetricsReport step_report = step_engine.Report();

    // Exact equality, not EXPECT_NEAR: both paths must execute the
    // same float operations in the same order.
    EXPECT_EQ(run_report.makespan, step_report.makespan);
    EXPECT_EQ(run_report.iterations, step_report.iterations);
    EXPECT_EQ(run_report.mean_batch_tokens, step_report.mean_batch_tokens);
    ASSERT_EQ(run_report.ttft.Count(), step_report.ttft.Count());
    for (size_t i = 0; i < run_report.ttft.Samples().size(); ++i) {
        EXPECT_EQ(run_report.ttft.Samples()[i],
                  step_report.ttft.Samples()[i]);
    }
    ASSERT_EQ(run_report.tbt.Count(), step_report.tbt.Count());
    EXPECT_EQ(run_report.tbt.Sum(), step_report.tbt.Sum());
    EXPECT_EQ(run_report.latency.Sum(), step_report.latency.Sum());
}

TEST(ServingEngineTest, SnapshotTracksQueueAndKv)
{
    ServingEngine engine(SmallConfig(core::Backend::kFaSerial),
                         std::make_unique<SarathiScheduler>(512));
    ReplicaSnapshot empty = engine.Snapshot();
    EXPECT_EQ(empty.submitted, 0);
    EXPECT_EQ(empty.outstanding, 0);
    EXPECT_EQ(empty.kv_utilization, 0.0);
    EXPECT_GT(empty.kv_total_blocks, 0);

    Request request{0, 0.0, 4096, 64, {}, -1, 0};
    engine.Submit(request);
    ReplicaSnapshot queued = engine.Snapshot();
    EXPECT_EQ(queued.submitted, 1);
    EXPECT_EQ(queued.waiting, 1);
    EXPECT_EQ(queued.running, 0);
    EXPECT_EQ(queued.outstanding, 1);
    EXPECT_EQ(queued.prefill_tokens_pending, 4096);
    // Not yet admitted: pressure counts the future reservation,
    // utilization does not.
    EXPECT_EQ(queued.kv_utilization, 0.0);
    EXPECT_GT(queued.kv_pressure, 0.0);

    StepResult first = engine.Step();
    EXPECT_TRUE(first.progressed);
    EXPECT_EQ(first.batch_tokens, 512);
    ReplicaSnapshot running = engine.Snapshot();
    EXPECT_EQ(running.waiting, 0);
    EXPECT_EQ(running.running, 1);
    EXPECT_GT(running.kv_utilization, 0.0);
    EXPECT_EQ(running.prefill_tokens_pending, 4096 - 512);
    EXPECT_EQ(running.iterations, 1);

    while (!engine.Done()) engine.Step();
    ReplicaSnapshot done = engine.Snapshot();
    EXPECT_EQ(done.finished, 1);
    EXPECT_EQ(done.outstanding, 0);
    EXPECT_EQ(done.kv_utilization, 0.0);  // blocks freed
    EXPECT_EQ(engine.NextEventTime(),
              std::numeric_limits<double>::infinity());
}

TEST(MetricsTest, ZeroRequestRunIsFiniteZeros)
{
    // An idle replica in a cluster produces an empty report; nothing
    // may divide by zero or emit NaN.
    MetricsReport report = CollectMetrics(std::vector<RequestState>{}, 0.0, 0, 0.0);
    EXPECT_EQ(report.num_requests, 0);
    EXPECT_EQ(report.requests_per_minute, 0.0);
    EXPECT_EQ(report.mean_batch_tokens, 0.0);
    EXPECT_EQ(report.frac_stalled_200ms, 0.0);
    EXPECT_TRUE(std::isfinite(report.ttft.Percentile(50)));
    EXPECT_TRUE(std::isfinite(report.ttft.Percentile(99)));
    EXPECT_TRUE(std::isfinite(report.tbt.Percentile(99)));
    EXPECT_TRUE(std::isfinite(report.latency.Mean()));
    EXPECT_TRUE(std::isfinite(report.tbt.Stddev()));
}

TEST(MetricsTest, SingleRequestRunIsFinite)
{
    std::vector<RequestState> states(1);
    states[0].request = Request{0, 0.0, 100, 1, {}, -1, 0};
    states[0].prefilled = 100;
    states[0].decoded = 1;
    states[0].phase = Phase::kFinished;
    states[0].first_token_time = 0.5;
    states[0].last_token_time = 0.5;
    states[0].finish_time = 0.5;
    MetricsReport report = CollectMetrics(states, 0.5, 3, 101.0);
    EXPECT_EQ(report.num_requests, 1);
    EXPECT_TRUE(std::isfinite(report.requests_per_minute));
    EXPECT_GT(report.requests_per_minute, 0.0);
    // One TTFT sample, zero TBT samples: percentiles interpolate over
    // a single point / an empty set without NaN.
    EXPECT_EQ(report.ttft.Count(), 1u);
    EXPECT_EQ(report.tbt.Count(), 0u);
    EXPECT_EQ(report.ttft.Percentile(50), 0.5);
    EXPECT_EQ(report.ttft.Percentile(99), 0.5);
    EXPECT_TRUE(std::isfinite(report.tbt.Percentile(99)));
    EXPECT_TRUE(std::isfinite(report.frac_stalled_200ms));
}

TEST(ServingConfigTest, KvCapacityPositiveAndScales)
{
    ServingConfig tp1 = SmallConfig(core::Backend::kFaSerial);
    tp1.tensor_parallel = 1;
    ServingConfig tp2 = SmallConfig(core::Backend::kFaSerial);
    long cap1 = tp1.KvTokenCapacity();
    long cap2 = tp2.KvTokenCapacity();
    EXPECT_GT(cap1, 100000);
    // TP-2 halves weights and halves per-token KV: capacity grows.
    EXPECT_GT(cap2, cap1);
}

}  // namespace
}  // namespace pod::serve
