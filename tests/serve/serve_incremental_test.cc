/**
 * @file
 * Invariant tests for the O(1) incremental queue/KV accounting
 * (PR 3): at every step of a mixed online trace, the counter-built
 * ReplicaSnapshot and NextEventTime() must equal what a brute-force
 * scan over all request states computes — the exact algorithm the
 * pre-refactor engine ran. Also covers the attention memo-cache
 * hit/miss counters surfaced through Counters().
 */
#include "serve/engine.h"

#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <vector>

#include "serve/scheduler.h"

namespace pod::serve {
namespace {

ServingConfig
SmallConfig()
{
    ServingConfig config;
    config.backend = core::Backend::kFaSerial;
    // Coarse buckets keep kernel simulations rare and the test fast.
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;
    return config;
}

std::vector<Request>
MixedTrace()
{
    std::vector<Request> trace;
    for (int i = 0; i < 24; ++i) {
        Request r;
        r.id = i;
        r.arrival_time = 0.4 * i;
        r.prefill_tokens = 700 + 900 * (i % 5) + (i % 6 == 0 ? 7000 : 0);
        r.decode_tokens = 8 + 23 * (i % 4);
        trace.push_back(r);
    }
    return trace;
}

/** The pre-refactor full-scan snapshot, kept as the test oracle. */
void
BruteForceExpectations(const ServingEngine& engine,
                       const ReplicaSnapshot& snap)
{
    const auto& states = engine.States();
    int waiting = 0;
    int running = 0;
    int preempted = 0;
    long prefill_pending = 0;
    long decode_pending = 0;
    double next_event = std::numeric_limits<double>::infinity();
    bool runnable = false;
    for (const auto& state : states) {
        if (state.Finished()) continue;
        if (state.Admitted() || state.Preempted() ||
            state.request.arrival_time <= engine.Now()) {
            runnable = true;
        } else {
            next_event =
                std::min(next_event, state.request.arrival_time);
        }
        if (state.Admitted()) {
            ++running;
            decode_pending +=
                state.request.decode_tokens - state.decoded;
        } else if (state.Preempted()) {
            ++preempted;
        } else if (state.request.arrival_time <= engine.Now()) {
            ++waiting;
        }
        prefill_pending += state.PrefillTarget() - state.prefilled;
    }
    EXPECT_EQ(snap.waiting, waiting);
    EXPECT_EQ(snap.running, running);
    EXPECT_EQ(snap.preempted, preempted);
    EXPECT_EQ(snap.prefill_tokens_pending, prefill_pending);
    EXPECT_EQ(snap.decode_tokens_pending, decode_pending);
    EXPECT_EQ(snap.outstanding,
              static_cast<int>(states.size()) - snap.finished);
    EXPECT_EQ(engine.NextEventTime(),
              runnable ? engine.Now() : next_event);
}

TEST(ServeIncrementalTest, SnapshotMatchesBruteForceScanEveryStep)
{
    ServingEngine engine(SmallConfig(),
                         std::make_unique<SarathiScheduler>(1024));
    engine.Reset();
    auto trace = MixedTrace();
    size_t submitted = 0;

    while (submitted < trace.size() || !engine.Done()) {
        // Interleave submissions with steps, as the cluster loop does.
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
    EXPECT_EQ(engine.NextEventTime(),
              std::numeric_limits<double>::infinity());
}

TEST(ServeIncrementalTest, SnapshotMatchesBruteForceUnderVllm)
{
    ServingEngine engine(SmallConfig(),
                         std::make_unique<VllmScheduler>());
    engine.Reset();
    for (const Request& r : MixedTrace()) engine.Submit(r);
    while (!engine.Done()) {
        BruteForceExpectations(engine, engine.Snapshot());
        engine.Step();
    }
    BruteForceExpectations(engine, engine.Snapshot());
}

TEST(ServeIncrementalTest, CacheCountersTrackLookups)
{
    ServingEngine engine(SmallConfig(),
                         std::make_unique<SarathiScheduler>(1024));
    engine.Run(MixedTrace());

    // Every miss inserts exactly one cache entry.
    EXPECT_EQ(engine.AttnCacheMisses(),
              static_cast<long>(engine.AttnCacheSize()));
    // The repetitive decode phases must mostly hit.
    EXPECT_GT(engine.AttnCacheHits(), engine.AttnCacheMisses());

    EngineCounters counters = engine.Counters();
    EXPECT_EQ(counters.attn_cache_entries,
              static_cast<long>(engine.AttnCacheSize()));
    EXPECT_EQ(counters.attn_cache_hits, engine.AttnCacheHits());
    EXPECT_EQ(counters.attn_cache_misses, engine.AttnCacheMisses());
}

}  // namespace
}  // namespace pod::serve
