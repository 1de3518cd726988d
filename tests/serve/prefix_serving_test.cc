/**
 * @file
 * Engine-level tests for shared-prefix KV reuse (docs/DESIGN.md
 * S2.6):
 *  - the bit-identity pin: enabling the prefix cache on opaque-prompt
 *    workloads (everything the pre-existing generators emit) changes
 *    nothing, byte for byte, across scheduler x policy combinations;
 *  - conservation of prefill work: processed + saved tokens under the
 *    cache equals tokens processed without it;
 *  - end-to-end session serving: hits happen, every request
 *    finishes, and the processed P:D ratio shifts decode-ward;
 *  - the eviction path under a small pool.
 */
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../golden_scenarios.h"
#include "common/rng.h"
#include "serve/scheduler.h"
#include "serve/trace.h"

namespace pod::serve {
namespace {

/** Every numeric field of two reports must agree exactly. */
void
ExpectBitIdentical(const MetricsReport& a, const MetricsReport& b)
{
    EXPECT_EQ(a.num_requests, b.num_requests);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.RequestsPerMinute(), b.RequestsPerMinute());
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.ttft.Percentile(50), b.ttft.Percentile(50));
    EXPECT_EQ(a.ttft.Percentile(99), b.ttft.Percentile(99));
    EXPECT_EQ(a.ttft.Max(), b.ttft.Max());
    EXPECT_EQ(a.tbt.Percentile(50), b.tbt.Percentile(50));
    EXPECT_EQ(a.tbt.Max(), b.tbt.Max());
    EXPECT_EQ(a.latency.Mean(), b.latency.Mean());
    EXPECT_EQ(a.latency.Max(), b.latency.Max());
    EXPECT_EQ(a.MeanBatchTokens(), b.MeanBatchTokens());
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.preemptions_recompute, b.preemptions_recompute);
    EXPECT_EQ(a.requests_preempted, b.requests_preempted);
    EXPECT_EQ(a.prefill_tokens_processed, b.prefill_tokens_processed);
    EXPECT_EQ(a.decode_tokens_processed, b.decode_tokens_processed);
}

MetricsReport
RunEngine(ServingConfig config, const std::vector<Request>& trace,
          bool sarathi = true)
{
    config.attn_options.sim.core = gpusim::EngineCore::kExactOracle;
    std::unique_ptr<Scheduler> scheduler;
    if (sarathi) {
        scheduler = std::make_unique<SarathiScheduler>(512);
    } else {
        scheduler = std::make_unique<VllmScheduler>();
    }
    ServingEngine engine(config, std::move(scheduler));
    return engine.Run(trace);
}

TEST(PrefixServingTest, OpaquePromptsKeepEveryPolicyBitIdentical)
{
    // The PR-3/5 golden traces have opaque prompts, so the cache can
    // never hit; with the clamp-to-miss admission path the allocator
    // must reproduce its cacheless configuration exactly. Paired
    // with the untouched golden regression suites, this pins
    // prefix_cache_enabled=false AND =true to pre-PR behaviour on
    // legacy workloads.
    struct Case
    {
        KvPolicy policy;
        bool sarathi;
        double memory_fraction;
    };
    std::vector<Case> cases = {
        {KvPolicy::kConservative, true, 0.9},
        {KvPolicy::kConservative, false, 0.9},
        {KvPolicy::kWatermark, true, 0.9},
        // Shrunken pool: the watermark path preempts (golden
        // preemption regime), exercising Evict/re-admit with the
        // cache on.
        {KvPolicy::kWatermark, true, 0.1},
    };
    for (const Case& c : cases) {
        ServingConfig config;
        config.backend = core::Backend::kPod;
        config.kv_policy = c.policy;
        config.kv_preempt_mode = PreemptMode::kRecompute;
        config.memory_fraction = c.memory_fraction;
        if (c.memory_fraction < 0.5) {
            // Shrunken-pool regime: TP-2 keeps the per-GPU weight
            // share under the reduced usable memory (the preemption
            // golden setup).
            config.tensor_parallel = 2;
        }
        const auto trace = c.memory_fraction < 0.5
                               ? golden::OverloadTrace()
                               : golden::ServeTrace();

        config.prefix_cache_enabled = false;
        MetricsReport off = RunEngine(config, trace, c.sarathi);
        config.prefix_cache_enabled = true;
        MetricsReport on = RunEngine(config, trace, c.sarathi);

        ExpectBitIdentical(off, on);
        // Opaque prompts never even count as lookups.
        EXPECT_EQ(on.prefix_hits, 0);
        EXPECT_EQ(on.prefix_misses, 0);
        EXPECT_EQ(on.prefix_tokens_saved, 0);
        EXPECT_EQ(on.prefix_cached_blocks, 0);
    }
}

TEST(PrefixServingTest, ConservativePrefillWorkIsConserved)
{
    // Under the conservative policy nothing is ever re-prefilled, so
    // the cache's accounting must balance exactly: every prompt token
    // is either processed or served from cache, and decode work is
    // untouched.
    SessionWorkloadSpec spec = SessionWorkloadSpec::Chat();
    spec.system_tokens_min = 512;
    spec.system_tokens_max = 1024;
    spec.max_turns = 3;
    Rng rng(42);
    auto trace = GenerateSessionTrace(spec, 12, 2.0, rng);

    ServingConfig config;
    config.backend = core::Backend::kPod;
    config.prefix_cache_enabled = false;
    MetricsReport off = RunEngine(config, trace);
    config.prefix_cache_enabled = true;
    MetricsReport on = RunEngine(config, trace);

    long submitted = 0;
    for (const Request& r : trace) submitted += r.prefill_tokens;
    EXPECT_EQ(off.prefill_tokens_processed, submitted);
    EXPECT_EQ(on.prefill_tokens_processed + on.prefix_tokens_saved,
              submitted);
    EXPECT_GT(on.prefix_tokens_saved, 0);
    EXPECT_EQ(on.decode_tokens_processed, off.decode_tokens_processed);
    EXPECT_EQ(on.num_requests, off.num_requests);
}

TEST(PrefixServingTest, SessionTraceHitsAndFinishesUnderWatermark)
{
    SessionWorkloadSpec spec = SessionWorkloadSpec::Chat();
    spec.system_tokens_min = 512;
    spec.system_tokens_max = 1024;
    spec.min_turns = 2;
    spec.max_turns = 3;
    Rng rng(7);
    auto trace = GenerateSessionTrace(spec, 10, 2.0, rng);

    ServingConfig config;
    config.backend = core::Backend::kPod;
    config.kv_policy = KvPolicy::kWatermark;
    config.kv_preempt_mode = PreemptMode::kRecompute;
    config.prefix_cache_enabled = true;
    MetricsReport m = RunEngine(config, trace);

    EXPECT_EQ(m.num_requests, static_cast<int>(trace.size()));
    EXPECT_EQ(m.latency.Count(), trace.size());  // everyone finished
    EXPECT_GT(m.prefix_hits, 0);  // turn >= 1 prompts re-hit history
    EXPECT_GT(m.prefix_tokens_saved, 0);
    // The cache converts prefill into decode-shaped work: with hits,
    // processed prefill drops strictly below the submitted total.
    long submitted = 0;
    for (const Request& r : trace) submitted += r.prefill_tokens;
    EXPECT_LT(m.prefill_tokens_processed, submitted);
}

TEST(PrefixServingTest, SmallPoolExercisesCacheEviction)
{
    // A 10x-shrunken pool under a session workload: cached blocks
    // must be reclaimed by LRU eviction (admission gate or decode
    // growth) rather than starving admissions, and the run must
    // still complete every request.
    SessionWorkloadSpec spec = SessionWorkloadSpec::Chat();
    spec.system_tokens_min = 512;
    spec.system_tokens_max = 1024;
    spec.min_turns = 2;
    spec.max_turns = 3;
    spec.decode_mean = 192.0;
    Rng rng(19);
    auto trace = GenerateSessionTrace(spec, 10, 4.0, rng);

    ServingConfig config;
    config.backend = core::Backend::kPod;
    config.tensor_parallel = 2;
    config.kv_policy = KvPolicy::kWatermark;
    config.kv_preempt_mode = PreemptMode::kRecompute;
    config.prefix_cache_enabled = true;
    config.memory_fraction = 0.0958;
    MetricsReport m = RunEngine(config, trace);

    EXPECT_EQ(m.latency.Count(), trace.size());
    EXPECT_GT(m.prefix_hits, 0);
    EXPECT_GT(m.prefix_evicted_blocks, 0);
}

}  // namespace
}  // namespace pod::serve
