/**
 * @file
 * Watermark admission and preemption semantics (docs/DESIGN.md S2):
 * allocator-level unit tests for the vLLM-style watermark gate,
 * incremental decode growth and swap bookkeeping, plus engine-level
 * tests that an overloaded replica preempts, restores progress
 * (recompute) or charges PCIe transfer time (swap), drains to
 * Done(), and keeps every incremental lifecycle counter equal to a
 * brute-force rescan at every step (mirroring
 * tests/serve/serve_incremental_test.cc).
 */
#include "serve/kv_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "../golden_scenarios.h"
#include "common/telemetry/registry.h"
#include "serve/counters.h"
#include "serve/engine.h"
#include "serve/scheduler.h"

namespace pod::serve {
namespace {

RequestState
MakeState(int id, int prefill_tokens, int decode_tokens)
{
    RequestState state;
    state.request = Request{id, 0.0, prefill_tokens, decode_tokens, {}, -1, 0};
    return state;
}

// ---- allocator unit tests ----

TEST(WatermarkKvAllocatorTest, AdmissionBlockedAtWatermark)
{
    // 100 blocks, 10 reserved as the watermark.
    KvAllocator kv(KvPolicy::kWatermark, 100, 16, 0.10,
                   PreemptMode::kRecompute);
    RequestState a = MakeState(0, 1280, 100);  // prompt = 80 blocks
    EXPECT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    EXPECT_EQ(kv.Held(0), 80);

    // 20 blocks free: an 11-block prompt would dip below the
    // watermark, a 10-block prompt sits exactly on it.
    RequestState b = MakeState(1, 176, 100);
    EXPECT_FALSE(kv.TryAdmit(b));
    RequestState c = MakeState(2, 160, 100);
    EXPECT_TRUE(kv.TryAdmit(c));
    EXPECT_EQ(kv.FreeBlocks(), 10);
}

TEST(WatermarkKvAllocatorTest, AdmitsOnPromptWhereConservativeBlocks)
{
    // The same request against the same pool: conservative reserves
    // prompt + maximum output and rejects; watermark reserves the
    // prompt only and admits. This is the relaxation that opens the
    // preemption-heavy regime.
    RequestState state = MakeState(0, 320, 1600);  // 20 + 100 blocks

    KvAllocator conservative(KvPolicy::kConservative, 64, 16);
    EXPECT_FALSE(conservative.TryAdmit(state));

    KvAllocator watermark(KvPolicy::kWatermark, 64, 16, 0.01,
                          PreemptMode::kRecompute);
    EXPECT_TRUE(watermark.TryAdmit(state));
    EXPECT_EQ(watermark.Held(0), 20);  // prompt blocks only
}

TEST(WatermarkKvAllocatorTest, AppendAllocatesAtBlockBoundaries)
{
    KvAllocator kv(KvPolicy::kWatermark, 10, 16, 0.0, PreemptMode::kRecompute);
    RequestState state = MakeState(0, 16, 64);  // prompt = 1 block
    ASSERT_TRUE(kv.TryAdmit(state));
    state.phase = Phase::kRunning;
    EXPECT_EQ(kv.Held(0), 1);

    // First decode token lands at position 16 -> a new block.
    state.prefilled = 16;
    state.decoded = 1;
    ASSERT_TRUE(kv.TryAppend(state));
    EXPECT_EQ(kv.Held(0), 2);

    // Tokens 17..31 stay inside the second block: no allocation.
    for (state.decoded = 2; state.decoded <= 15; ++state.decoded) {
        ASSERT_TRUE(kv.TryAppend(state));
        EXPECT_EQ(kv.Held(0), 2);
    }
    // Token at position 32 crosses into a third block.
    state.decoded = 16;
    ASSERT_TRUE(kv.TryAppend(state));
    EXPECT_EQ(kv.Held(0), 3);
}

TEST(WatermarkKvAllocatorTest, CanAppendFalseOnlyWhenPoolExhausted)
{
    KvAllocator kv(KvPolicy::kWatermark, 3, 16, 0.0, PreemptMode::kRecompute);
    RequestState a = MakeState(0, 16, 64);
    RequestState b = MakeState(1, 32, 64);
    ASSERT_TRUE(kv.TryAdmit(a));
    ASSERT_TRUE(kv.TryAdmit(b));
    a.phase = Phase::kRunning;
    b.phase = Phase::kRunning;
    EXPECT_EQ(kv.FreeBlocks(), 0);

    // `a` needs a new block for its first decode token: blocked.
    a.prefilled = 16;
    a.decoded = 1;
    EXPECT_FALSE(kv.TryAppend(a));

    // Evicting `b` frees the block `a` needs.
    EXPECT_EQ(kv.Evict(b, PreemptMode::kRecompute), 2);
    EXPECT_TRUE(kv.TryAppend(a));
}

TEST(WatermarkKvAllocatorTest, SwapEvictRestoresExactFootprint)
{
    KvAllocator kv(KvPolicy::kWatermark, 10, 16, 0.0, PreemptMode::kSwap);
    RequestState state = MakeState(0, 48, 64);  // 3 blocks
    ASSERT_TRUE(kv.TryAdmit(state));
    state.phase = Phase::kRunning;
    state.prefilled = 48;
    state.decoded = 1;
    ASSERT_TRUE(kv.TryAppend(state));  // 4th block for the first output token
    ASSERT_EQ(kv.Held(0), 4);

    EXPECT_EQ(kv.Evict(state, PreemptMode::kSwap), 4);
    state.phase = Phase::kPreemptedSwapped;
    EXPECT_EQ(kv.UsedBlocks(), 0);
    EXPECT_EQ(kv.SwappedBlocks(0), 4);

    // Swap-in restores the identical footprint, not a recomputed one.
    EXPECT_TRUE(kv.TryAdmit(state));
    EXPECT_EQ(kv.Held(0), 4);
    EXPECT_EQ(kv.SwappedBlocks(0), 0);
}

TEST(WatermarkKvAllocatorTest, WatermarkHeadroomTracksFreePool)
{
    KvAllocator kv(KvPolicy::kWatermark, 100, 16, 0.10,
                   PreemptMode::kRecompute);
    EXPECT_DOUBLE_EQ(kv.WatermarkHeadroom(), 0.90);
    RequestState state = MakeState(0, 1280, 16);  // 80 blocks
    ASSERT_TRUE(kv.TryAdmit(state));
    EXPECT_NEAR(kv.WatermarkHeadroom(), 0.10, 1e-12);

    KvAllocator conservative(KvPolicy::kConservative, 100, 16);
    EXPECT_DOUBLE_EQ(conservative.WatermarkHeadroom(), 1.0);
}

// ---- engine-level preemption semantics ----

ServingConfig
OverloadConfig(PreemptMode mode)
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kFaSerial;
    // Shrink the KV pool to a few thousand tokens so the overload
    // trace actually contends (same trick as failure_test.cc).
    config.memory_fraction = 0.0958;
    config.kv_policy = KvPolicy::kWatermark;
    config.kv_preempt_mode = mode;
    // Coarse buckets keep kernel simulations rare and the test fast.
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;
    return config;
}

TEST(PreemptionEngineTest, RecomputeOverloadPreemptsAndDrains)
{
    ServingEngine engine(OverloadConfig(PreemptMode::kRecompute),
                         std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(golden::OverloadTrace());

    // The acceptance bar: at least one preemption occurred and the
    // engine still drained every request.
    EXPECT_GT(report.preemptions, 0l);
    EXPECT_EQ(report.preemptions, report.preemptions_recompute);
    EXPECT_EQ(report.preemptions_swap, 0l);
    EXPECT_EQ(report.swap_time_total, 0.0);
    EXPECT_GT(report.requests_preempted, 0);
    EXPECT_EQ(report.num_requests, 12);
    EXPECT_EQ(report.latency.Count(), 12u);
    EXPECT_TRUE(engine.Done());

    // Recompute restored prefill progress: a preempted request ended
    // with its prefill re-run over prompt + already-generated tokens.
    long preempt_count_sum = 0;
    bool saw_restored_prefill = false;
    for (const auto& state : engine.States()) {
        EXPECT_TRUE(state.Finished());
        EXPECT_EQ(state.decoded, state.request.decode_tokens);
        EXPECT_EQ(state.prefilled, state.PrefillTarget());
        preempt_count_sum += state.preempt_count;
        if (state.preempt_count > 0 && state.recompute_extra > 0) {
            EXPECT_EQ(state.PrefillTarget(),
                      state.request.prefill_tokens +
                          state.recompute_extra);
            saw_restored_prefill = true;
        }
    }
    EXPECT_TRUE(saw_restored_prefill);
    // Preempted-request counters match the brute-force rescan.
    EXPECT_EQ(report.preemptions, preempt_count_sum);

    // Counters surface through the engine.
    EngineCounters counters = engine.Counters();
    EXPECT_EQ(counters.preemptions_recompute, report.preemptions_recompute);
    EXPECT_EQ(counters.preemptions_swap, 0l);
    EXPECT_EQ(engine.Snapshot().preempted, 0);  // all drained
    EXPECT_EQ(counters.swap_time_total, 0.0);
}

TEST(PreemptionEngineTest, SwapChargesTransferTime)
{
    ServingEngine engine(OverloadConfig(PreemptMode::kSwap),
                         std::make_unique<SarathiScheduler>(512));

    // Drive Step() directly so per-iteration swap charges can be
    // cross-checked against the lifetime total.
    auto trace = golden::OverloadTrace();
    std::sort(trace.begin(), trace.end(), ArrivalOrder);
    engine.Reset();
    for (const auto& request : trace) engine.Submit(request);
    double summed_swap_time = 0.0;
    while (!engine.Done()) {
        StepResult result = engine.Step();
        summed_swap_time += result.swap_time;
        // Swap transfers stretch the iteration that performs them.
        EXPECT_LE(result.swap_time, result.duration);
    }
    MetricsReport report = engine.Report();

    EXPECT_GT(report.preemptions_swap, 0l);
    EXPECT_EQ(report.preemptions_recompute, 0l);
    EXPECT_GT(report.swap_time_total, 0.0);
    EXPECT_DOUBLE_EQ(report.swap_time_total, summed_swap_time);
    EXPECT_DOUBLE_EQ(engine.Counters().swap_time_total, summed_swap_time);

    // Swapped requests resume where they left off: no prefill target
    // ever grows under pure swap preemption.
    for (const auto& state : engine.States()) {
        EXPECT_EQ(state.recompute_extra, 0);
        EXPECT_EQ(state.decoded, state.request.decode_tokens);
    }
}

TEST(PreemptionEngineTest, SimTimeSplitSumsToBusyTime)
{
    // "Where did the sim time go?": the published sim_time.* rows
    // plus the swap charge account for every iteration's latency.
    ServingEngine engine(OverloadConfig(PreemptMode::kSwap),
                         std::make_unique<SarathiScheduler>(512));
    auto trace = golden::OverloadTrace();
    std::sort(trace.begin(), trace.end(), ArrivalOrder);
    engine.Reset();
    for (const auto& request : trace) engine.Submit(request);
    double busy = 0.0;
    while (!engine.Done()) busy += engine.Step().duration;
    ASSERT_GT(engine.Counters().swap_time_total, 0.0);

    telemetry::MetricRegistry registry;
    FillCounters(engine.Counters(), registry, "serve.");
    double split = 0.0;
    int rows = 0;
    for (const auto& row : registry.Rows()) {
        if (row.name.rfind("serve.sim_time.", 0) == 0 ||
            row.name == "serve.swap.total_seconds") {
            EXPECT_GT(row.gauge, 0.0) << row.name;
            split += row.gauge;
            ++rows;
        }
    }
    EXPECT_EQ(rows, 5);
    EXPECT_NEAR(split, busy, 1e-9 * busy);
}

TEST(PreemptionEngineTest, SwapSlowerMakespanThanFreeEviction)
{
    // The transfer charge must be visible end-to-end: the same trace
    // under the same allocator with swap costs a strictly longer
    // makespan than with recompute-free... not comparable in general,
    // but swap time must at least push makespan above the pure
    // iteration sum, which recompute does not inflate.
    ServingEngine swap_engine(OverloadConfig(PreemptMode::kSwap),
                              std::make_unique<SarathiScheduler>(512));
    MetricsReport swap_report =
        swap_engine.Run(golden::OverloadTrace());
    EXPECT_GT(swap_report.swap_time_total, 0.0);
    EXPECT_GT(swap_report.makespan, swap_report.swap_time_total);
}

TEST(PreemptionEngineTest, VllmSchedulerAlsoDrainsUnderWatermark)
{
    ServingEngine engine(OverloadConfig(PreemptMode::kRecompute),
                         std::make_unique<VllmScheduler>());
    MetricsReport report = engine.Run(golden::OverloadTrace());
    EXPECT_EQ(report.num_requests, 12);
    EXPECT_EQ(report.latency.Count(), 12u);
    EXPECT_TRUE(engine.Done());
}

// ---- brute-force invariant under preemption ----

/**
 * The serve_incremental_test.cc oracle, extended with the preempted
 * phase: every lifecycle counter the O(1) snapshot reports must
 * equal a full rescan of the request states.
 */
void
BruteForceExpectations(const ServingEngine& engine,
                       const ReplicaSnapshot& snap)
{
    const auto& states = engine.States();
    const KvAllocator& alloc = engine.Allocator();
    int waiting = 0;
    int running = 0;
    int preempted = 0;
    long prefill_pending = 0;
    long decode_pending = 0;
    long preempt_events = 0;
    long pending_blocks = 0;  // unadmitted + preempted latent demand
    double next_event = std::numeric_limits<double>::infinity();
    bool runnable = false;
    for (const auto& state : states) {
        preempt_events += state.preempt_count;
        if (state.Finished()) continue;
        if (state.Admitted() || state.Preempted() ||
            state.request.arrival_time <= engine.Now()) {
            runnable = true;
        } else {
            next_event = std::min(next_event, state.request.arrival_time);
        }
        if (state.Admitted()) {
            ++running;
            decode_pending += state.request.decode_tokens - state.decoded;
        } else if (state.phase == Phase::kPreemptedRecompute) {
            ++preempted;
            pending_blocks += alloc.BlocksFor(state.PrefillTarget());
        } else if (state.phase == Phase::kPreemptedSwapped) {
            ++preempted;
            ASSERT_EQ(alloc.preempt_mode(), PreemptMode::kSwap);
            pending_blocks += alloc.SwappedBlocks(state.request.id);
        } else {
            if (state.request.arrival_time <= engine.Now()) ++waiting;
            pending_blocks += alloc.BlocksFor(
                state.request.prefill_tokens + state.request.decode_tokens);
        }
        prefill_pending += state.PrefillTarget() - state.prefilled;
    }
    // kv_pressure counts reserved blocks plus every queued AND
    // preempted request's latent re-reservation demand.
    EXPECT_DOUBLE_EQ(
        snap.kv_pressure,
        alloc.Utilization() + static_cast<double>(pending_blocks) /
                                  static_cast<double>(alloc.TotalBlocks()));
    EXPECT_EQ(snap.waiting, waiting);
    EXPECT_EQ(snap.running, running);
    EXPECT_EQ(snap.preempted, preempted);
    EXPECT_EQ(snap.prefill_tokens_pending, prefill_pending);
    EXPECT_EQ(snap.decode_tokens_pending, decode_pending);
    EXPECT_EQ(engine.Counters().preemptions_recompute +
                  engine.Counters().preemptions_swap,
              preempt_events);
    EXPECT_EQ(snap.outstanding,
              static_cast<int>(states.size()) - snap.finished);
    EXPECT_EQ(engine.NextEventTime(),
              runnable ? engine.Now() : next_event);
}

TEST(PreemptionEngineTest, CountersMatchBruteForceEveryStep)
{
    for (PreemptMode mode :
         {PreemptMode::kRecompute, PreemptMode::kSwap}) {
        ServingEngine engine(OverloadConfig(mode),
                             std::make_unique<SarathiScheduler>(512));
        engine.Reset();
        auto trace = golden::OverloadTrace();
        size_t submitted = 0;
        while (submitted < trace.size() || !engine.Done()) {
            // Interleave submissions with steps, as the cluster does.
            while (submitted < trace.size() &&
                   trace[submitted].arrival_time <= engine.Now()) {
                engine.Submit(trace[submitted++]);
            }
            BruteForceExpectations(engine, engine.Snapshot());
            if (!engine.Done()) {
                engine.Step();
            } else if (submitted < trace.size()) {
                engine.Submit(trace[submitted++]);
            }
        }
        BruteForceExpectations(engine, engine.Snapshot());
        EngineCounters counters = engine.Counters();
        EXPECT_GT(counters.preemptions_recompute + counters.preemptions_swap,
                  0l);
    }
}

TEST(PreemptionEngineTest, ConservativeNeverPreemptsOnOverload)
{
    // The same overload trace under the default policy: requests
    // queue instead of thrashing, and every lifecycle counter stays
    // zero — the redesign is opt-in.
    ServingConfig config = OverloadConfig(PreemptMode::kRecompute);
    config.kv_policy = KvPolicy::kConservative;
    ServingEngine engine(config,
                         std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(golden::OverloadTrace());
    EXPECT_EQ(report.preemptions, 0l);
    EXPECT_EQ(report.requests_preempted, 0);
    EXPECT_EQ(report.swap_time_total, 0.0);
    EXPECT_EQ(report.num_requests, 12);
}

}  // namespace
}  // namespace pod::serve
